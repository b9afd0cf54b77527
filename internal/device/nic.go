package device

import (
	"fmt"

	"nocs/internal/faultinject"
	"nocs/internal/mem"
	"nocs/internal/sim"
)

// NIC RX descriptor layout (24 bytes per slot at RingBase + 24*slot):
//
//	+0:  buffer address
//	+8:  payload length in words
//	+16: ready flag (device writes 1, software clears)
const (
	rxDescBytes = 24
	rxDescBuf   = 0
	rxDescLen   = 8
	rxDescReady = 16
)

// NIC TX descriptor layout (24 bytes per slot at TXRingBase + 24*slot):
//
//	+0:  buffer address
//	+8:  payload length in words
//	+16: done flag (device writes 1 after transmit)
const (
	txDescBytes = 24
	txDescBuf   = 0
	txDescLen   = 8
	txDescDone  = 16
)

// NICConfig lays out a NIC's receive path in physical memory.
type NICConfig struct {
	// RingBase is the RX descriptor ring's base address.
	RingBase int64
	// RingEntries is the ring size (default 256).
	RingEntries int
	// BufBase and BufStride place the packet buffers.
	BufBase   int64
	BufStride int64
	// TailAddr is the RX tail word: a monotonically increasing count of
	// delivered packets. This is the address the paper's network thread
	// monitors ("wait on the RX queue tail until packet arrival").
	TailAddr int64
	// HeadAddr is where software publishes its consumption count, so the
	// device can detect ring overrun. Zero disables overrun detection.
	HeadAddr int64
	// DMACycles is the per-packet DMA latency (default 300, ~100 ns at
	// 3 GHz — wire-to-memory time for a small packet on a fast NIC).
	DMACycles sim.Cycles

	// Transmit side (optional; zero TXDoorbell disables it).
	// TXRingBase is the TX descriptor ring; TXEntries its size (default 256).
	TXRingBase int64
	TXEntries  int
	// TXDoorbell is the MMIO register software stores the new TX tail to
	// (map the NIC with Memory.MapMMIO(TXDoorbell, 8, nic)).
	TXDoorbell int64
	// TXCompAddr is the monitorable transmit-completion counter.
	TXCompAddr int64
	// TXCycles is the per-packet transmit latency (default 300).
	TXCycles sim.Cycles
}

func (c *NICConfig) setDefaults() {
	if c.RingEntries == 0 {
		c.RingEntries = 256
	}
	if c.BufStride == 0 {
		c.BufStride = 2048
	}
	if c.DMACycles == 0 {
		c.DMACycles = 300
	}
	if c.TXEntries == 0 {
		c.TXEntries = 256
	}
	if c.TXCycles == 0 {
		c.TXCycles = 300
	}
}

// Validate checks the configuration after defaults are applied. The receive
// path is mandatory (ring, buffers, and a monitorable tail); the transmit
// side is optional but all-or-none: a TX ring without a doorbell (or vice
// versa) is a mis-wired device.
func (c *NICConfig) Validate() error {
	if c.RingBase == 0 {
		return fmt.Errorf("nic: RingBase is required")
	}
	if c.BufBase == 0 {
		return fmt.Errorf("nic: BufBase is required")
	}
	if c.TailAddr == 0 {
		return fmt.Errorf("nic: TailAddr is required (the monitorable RX tail)")
	}
	if c.RingEntries <= 0 {
		return fmt.Errorf("nic: RingEntries %d must be positive", c.RingEntries)
	}
	if c.BufStride <= 0 {
		return fmt.Errorf("nic: BufStride %d must be positive", c.BufStride)
	}
	if c.DMACycles <= 0 {
		return fmt.Errorf("nic: DMACycles %d must be positive", c.DMACycles)
	}
	tx := c.TXRingBase != 0 || c.TXDoorbell != 0 || c.TXCompAddr != 0
	if tx {
		if c.TXRingBase == 0 || c.TXDoorbell == 0 {
			return fmt.Errorf("nic: transmit side is all-or-none: TXRingBase and TXDoorbell are both required (got %#x, %#x)",
				c.TXRingBase, c.TXDoorbell)
		}
		if c.TXEntries <= 0 {
			return fmt.Errorf("nic: TXEntries %d must be positive", c.TXEntries)
		}
		if c.TXCycles <= 0 {
			return fmt.Errorf("nic: TXCycles %d must be positive", c.TXCycles)
		}
	}
	return nil
}

// NIC is a network interface model: DMA receive ring plus an MMIO-doorbell
// transmit ring.
type NIC struct {
	cfg NICConfig
	eng *sim.Shard
	dma *mem.DMA
	sig Signal

	delivered uint64 // packets DMA'd into the RX ring
	dropped   uint64 // RX ring-overrun drops

	txHead      int64 // next TX slot the device will transmit
	txTail      int64 // last doorbell value
	transmitted uint64
	// OnTransmit, if set, observes each transmitted payload (the "wire").
	// The payload is valid only during the call: the NIC reuses its array
	// for the next packet, so an observer that keeps words copies them.
	OnTransmit func(payload []int64)
	txBuf      []int64 // the payload OnTransmit sees

	// rx and tx track in-flight DMA operations so they remain checkpointable
	// (DESIGN.md §13), in the order they were started; rxFree and txFree
	// recycle their bodies.
	rx     []*nicRX
	tx     []*nicTX
	rxFree sim.FreeList[nicRX]
	txFree sim.FreeList[nicTX]

	// inj injects delayed/reordered/dropped DMA completions (nil = off).
	inj *faultinject.Injector
}

// nicRX is one in-flight packet arrival: after the DMA latency it writes the
// payload, descriptor, and RX tail (doorbell-last). payload is the body's
// own copy of the packet, kept across reuse.
type nicRX struct {
	n       *NIC
	h       sim.Handle
	payload []int64
}

// OnEvent lands the packet in the RX ring.
func (rx *nicRX) OnEvent() {
	n := rx.n
	for i, q := range n.rx {
		if q == rx {
			n.rx = append(n.rx[:i], n.rx[i+1:]...)
			break
		}
	}
	n.landRX(rx.payload)
	n.rxFree.Put(rx)
}

// nicTX is one in-flight transmit: after the wire latency it marks the
// descriptor done and advances the completion counter.
type nicTX struct {
	n    *NIC
	h    sim.Handle
	slot int64
	seq  int64
}

// OnEvent completes the transmit.
func (tx *nicTX) OnEvent() {
	n, slot, seq := tx.n, tx.slot, tx.seq
	for i, q := range n.tx {
		if q == tx {
			n.tx = append(n.tx[:i], n.tx[i+1:]...)
			break
		}
	}
	n.txFree.Put(tx)
	n.completeTX(slot, seq)
}

// SetFaultInjector arms DMA-completion fault injection (machine wiring).
func (n *NIC) SetFaultInjector(inj *faultinject.Injector) { n.inj = inj }

// NewNIC builds a NIC writing through the given DMA port. The config is
// validated after defaults are applied; a mis-laid-out device is an error,
// not a panic.
func NewNIC(cfg NICConfig, eng *sim.Shard, dma *mem.DMA, sig Signal) (*NIC, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NIC{cfg: cfg, eng: eng, dma: dma, sig: sig}, nil
}

// Config returns the effective configuration.
func (n *NIC) Config() NICConfig { return n.cfg }

// TailAddr returns the monitorable RX tail address.
func (n *NIC) TailAddr() int64 { return n.cfg.TailAddr }

// Deliver schedules arrival of one packet with the given payload words.
// After the DMA latency the device writes payload, descriptor, and finally
// the RX tail (doorbell-last ordering), then raises the legacy vector if
// configured. It returns the simulated time at which the tail write lands.
// The NIC copies payload, so the caller may reuse it as soon as Deliver
// returns.
func (n *NIC) Deliver(payload []int64) sim.Cycles {
	d := n.cfg.DMACycles
	// Fault injection: a delayed completion lands late (and may overtake or
	// be overtaken by its neighbors); a dropped one is lost on the wire-to-
	// memory path and redelivered by the device's recovery logic. Either way
	// the packet eventually arrives — the ring state is read at fire time,
	// so reordered completions still write consistent descriptors.
	if extra := n.inj.DMADelivery("nic-rx"); extra > 0 {
		d += extra
	}
	at := n.eng.Now() + d
	rx := n.rxFree.Get()
	rx.n, rx.payload = n, append(rx.payload[:0], payload...)
	rx.h = n.eng.AfterCallback(d, "nic-rx", rx)
	n.rx = append(n.rx, rx)
	return at
}

// landRX writes one arrived packet into the RX ring: payload, descriptor,
// then the tail (doorbell-last, so a monitor wake sees a complete
// descriptor).
func (n *NIC) landRX(payload []int64) {
	tail := n.dma.Read(n.cfg.TailAddr)
	if n.cfg.HeadAddr != 0 {
		head := n.dma.Read(n.cfg.HeadAddr)
		if tail-head >= int64(n.cfg.RingEntries) {
			n.dropped++
			return
		}
	}
	slot := tail % int64(n.cfg.RingEntries)
	bufAddr := n.cfg.BufBase + slot*n.cfg.BufStride
	n.dma.WriteBytesAsWords(bufAddr, payload)
	desc := n.cfg.RingBase + slot*rxDescBytes
	n.dma.Write(desc+rxDescBuf, bufAddr)
	n.dma.Write(desc+rxDescLen, int64(len(payload)))
	n.dma.Write(desc+rxDescReady, 1)
	n.dma.Write(n.cfg.TailAddr, tail+1)
	n.delivered++
	n.sig.raise()
}

// ReadDesc decodes RX descriptor slot i (test and driver helper).
func (n *NIC) ReadDesc(i int64) (bufAddr, length int64, ready bool) {
	desc := n.cfg.RingBase + (i%int64(n.cfg.RingEntries))*rxDescBytes
	return n.dma.Read(desc + rxDescBuf),
		n.dma.Read(desc + rxDescLen),
		n.dma.Read(desc+rxDescReady) != 0
}

// Stats returns (delivered, dropped).
func (n *NIC) Stats() (delivered, dropped uint64) { return n.delivered, n.dropped }

// Transmitted returns the number of packets sent through the TX ring.
func (n *NIC) Transmitted() uint64 { return n.transmitted }

var _ mem.MMIOHandler = (*NIC)(nil)

// MMIORead exposes the TX head so drivers can compute free TX slots.
func (n *NIC) MMIORead(addr int64) int64 {
	if addr == n.cfg.TXDoorbell && n.cfg.TXDoorbell != 0 {
		return n.txHead
	}
	return 0
}

// MMIOWrite is the TX doorbell: software publishes a new TX tail after
// filling descriptors; the device transmits each packet after the wire
// latency, marks its descriptor done, advances the completion counter
// (doorbell-last), and raises the legacy vector if configured.
func (n *NIC) MMIOWrite(addr int64, val int64) {
	if addr != n.cfg.TXDoorbell || n.cfg.TXDoorbell == 0 {
		return
	}
	if val > n.txTail {
		n.txTail = val
	}
	for n.txHead < n.txTail {
		slot := n.txHead % int64(n.cfg.TXEntries)
		n.txHead++
		seq := n.txHead
		lat := n.cfg.TXCycles
		if extra := n.inj.DMADelivery("nic-tx"); extra > 0 {
			lat += extra
		}
		tx := n.txFree.Get()
		*tx = nicTX{n: n, slot: slot, seq: seq}
		tx.h = n.eng.AfterCallback(lat, "nic-tx", tx)
		n.tx = append(n.tx, tx)
	}
}

// completeTX finishes one transmit: hands the payload to the wire observer,
// marks the descriptor done, and advances the completion counter.
func (n *NIC) completeTX(slot, seq int64) {
	desc := n.cfg.TXRingBase + slot*txDescBytes
	if n.OnTransmit != nil {
		buf := n.dma.Read(desc + txDescBuf)
		length := n.dma.Read(desc + txDescLen)
		n.txBuf = n.txBuf[:0]
		for i := range length {
			n.txBuf = append(n.txBuf, n.dma.Read(buf+i*8))
		}
		n.OnTransmit(n.txBuf)
	}
	n.dma.Write(desc+txDescDone, 1)
	if n.cfg.TXCompAddr != 0 {
		if n.inj != nil && n.dma.Read(n.cfg.TXCompAddr) > seq {
			// A reordered (delayed) completion must not walk the
			// monotonic completion counter backwards.
		} else {
			n.dma.Write(n.cfg.TXCompAddr, seq)
		}
	}
	n.transmitted++
	n.sig.raise()
}

// WriteTXDesc fills TX descriptor slot i (driver helper).
func (n *NIC) WriteTXDesc(m *mem.Memory, i int64, bufAddr, length int64) {
	desc := n.cfg.TXRingBase + (i%int64(n.cfg.TXEntries))*txDescBytes
	m.Write(desc+txDescBuf, bufAddr, mem.SrcCPU)
	m.Write(desc+txDescLen, length, mem.SrcCPU)
	m.Write(desc+txDescDone, 0, mem.SrcCPU)
}

// String describes the NIC.
func (n *NIC) String() string {
	return fmt.Sprintf("nic{ring=%d tail=%#x}", n.cfg.RingEntries, n.cfg.TailAddr)
}
