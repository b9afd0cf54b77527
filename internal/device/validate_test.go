package device

import (
	"strings"
	"testing"

	"nocs/internal/mem"
	"nocs/internal/sim"
)

// must* wrap the error-returning constructors for rigs whose configs are
// compile-time constants: a failure there is a bug in the test itself.

func mustNIC(cfg NICConfig, eng *sim.Shard, dma *mem.DMA, sig Signal) *NIC {
	n, err := NewNIC(cfg, eng, dma, sig)
	if err != nil {
		panic(err)
	}
	return n
}

func mustSSD(cfg SSDConfig, eng *sim.Shard, dma *mem.DMA, sig Signal) *SSD {
	s, err := NewSSD(cfg, eng, dma, sig)
	if err != nil {
		panic(err)
	}
	return s
}

// The validated-config pattern: every constructor rejects a broken layout
// with an error naming the offending field, instead of panicking or building
// a silently dysfunctional device.

func TestNICConfigRejections(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	dma := mem.NewDMA(mem.NewMemory())
	good := NICConfig{RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000}
	if _, err := NewNIC(good, eng, dma, Signal{}); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*NICConfig)
		want string
	}{
		{"missing ring", func(c *NICConfig) { c.RingBase = 0 }, "RingBase"},
		{"missing buffers", func(c *NICConfig) { c.BufBase = 0 }, "BufBase"},
		{"missing tail", func(c *NICConfig) { c.TailAddr = 0 }, "TailAddr"},
		{"negative ring entries", func(c *NICConfig) { c.RingEntries = -1 }, "RingEntries"},
		{"negative buf stride", func(c *NICConfig) { c.BufStride = -8 }, "BufStride"},
		{"negative dma cycles", func(c *NICConfig) { c.DMACycles = -1 }, "DMACycles"},
		{"tx ring without doorbell", func(c *NICConfig) { c.TXRingBase = 0x40000 }, "all-or-none"},
		{"tx doorbell without ring", func(c *NICConfig) { c.TXDoorbell = 0x9000_0000 }, "all-or-none"},
		{"tx completion alone", func(c *NICConfig) { c.TXCompAddr = 0x50000 }, "all-or-none"},
		{"negative tx entries", func(c *NICConfig) {
			c.TXRingBase, c.TXDoorbell, c.TXEntries = 0x40000, 0x9000_0000, -1
		}, "TXEntries"},
		{"negative tx cycles", func(c *NICConfig) {
			c.TXRingBase, c.TXDoorbell, c.TXCycles = 0x40000, 0x9000_0000, -1
		}, "TXCycles"},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		_, err := NewNIC(cfg, eng, dma, Signal{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestSSDConfigRejections(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	dma := mem.NewDMA(mem.NewMemory())
	good := SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
	}
	if _, err := NewSSD(good, eng, dma, Signal{}); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SSDConfig)
		want string
	}{
		{"missing sq", func(c *SSDConfig) { c.SQBase = 0 }, "SQBase"},
		{"missing cq", func(c *SSDConfig) { c.CQBase = 0 }, "CQBase"},
		{"missing doorbell", func(c *SSDConfig) { c.DoorbellAddr = 0 }, "DoorbellAddr"},
		{"missing cq tail", func(c *SSDConfig) { c.CQTailAddr = 0 }, "CQTailAddr"},
		{"negative entries", func(c *SSDConfig) { c.Entries = -1 }, "Entries"},
		{"negative latency", func(c *SSDConfig) { c.BaseLatency = -1 }, "BaseLatency"},
		{"negative per-word", func(c *SSDConfig) { c.PerWord = -1 }, "PerWord"},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		_, err := NewSSD(cfg, eng, dma, Signal{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
