package device

import (
	"bytes"
	"errors"
	"testing"

	"nocs/internal/faultinject"
	"nocs/internal/mem"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// checkpointClock is the cycle the device rigs are checkpointed at.
const checkpointClock = 2100

// deviceRig is one NIC and one SSD on a shared engine, both polling one
// fault injector for their DMA completions.
type deviceRig struct {
	eng *sim.Shard
	m   *mem.Memory
	nic *NIC
	ssd *SSD
	inj *faultinject.Injector

	// lateRX counts the RX completions the injector delayed that are
	// still in flight at checkpointClock (busyDeviceRig).
	lateRX int
}

func newDeviceRig() *deviceRig {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	dma := mem.NewDMA(m)
	d := &deviceRig{eng: eng, m: m}
	d.nic = mustNIC(NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000, HeadAddr: 0x30008,
		TXRingBase: 0x70000, TXDoorbell: 0x9100_0000, TXCompAddr: 0x78000, TXCycles: 400,
	}, eng, dma, Signal{})
	d.ssd = mustSSD(SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
		BaseLatency: 1000, PerWord: 2,
	}, eng, dma, Signal{})
	d.inj = faultinject.New(faultinject.Plan{Seed: 7, DMADelayP: 0.9, DMADelayMax: 3000})
	d.nic.SetFaultInjector(d.inj)
	d.ssd.SetFaultInjector(d.inj)
	for addr, h := range map[int64]mem.MMIOHandler{0x9000_0000: d.ssd, 0x9100_0000: d.nic} {
		if err := m.MapMMIO(addr, 8, h); err != nil {
			panic(err)
		}
	}
	return d
}

// deviceSections names the rig's sections in a fixed order.
var deviceSections = []string{"dev/nic0", "dev/ssd0"}

// sections maps each section name to its device.
func (d *deviceRig) sections() map[string]snapshot.Codec {
	return map[string]snapshot.Codec{"dev/nic0": d.nic, "dev/ssd0": d.ssd}
}

// busyDeviceRig runs a rig to checkpointClock with RX and TX DMA and an SSD
// command in flight. A packet arrives every 300 cycles before that, and the
// injector delays most RX completions by up to 3000 cycles, so some land
// out of order and some are still in flight at the checkpoint.
func busyDeviceRig() *deviceRig {
	d := newDeviceRig()
	for at := sim.Cycles(0); at < checkpointClock-100; at += 300 {
		d.eng.RunUntil(at)
		d.deliver([]int64{int64(at)})
	}
	d.eng.RunUntil(checkpointClock - 100)
	d.deliver([]int64{42, 43})
	d.nic.WriteTXDesc(d.m, 0, 0x20000, 2)
	d.m.Write(0x9100_0000, 1, mem.SrcCPU)
	d.ssd.WriteSQE(d.m, 0, OpRead, 1234, 8, 77)
	d.m.Write(0x9000_0000, 1, mem.SrcCPU)
	d.eng.RunUntil(checkpointClock)
	return d
}

// deliver hands the NIC one packet and counts it in lateRX if the injector
// delayed it past checkpointClock.
func (d *deviceRig) deliver(payload []int64) {
	now := d.eng.Now()
	if at := d.nic.Deliver(payload); at > now+d.nic.Config().DMACycles && at > checkpointClock {
		d.lateRX++
	}
}

// encodeDevices checkpoints every device of d, their fault injector and the
// engine into one container.
func encodeDevices(t testing.TB, d *deviceRig) *snapshot.Snapshot {
	t.Helper()
	b := snapshot.NewBuilder()
	d.eng.BeginSnapshot()
	for _, name := range deviceSections {
		if err := d.sections()[name].SnapshotState(b.Section(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.inj.SnapshotState(b.Section("faults")); err != nil {
		t.Fatal(err)
	}
	if err := d.eng.SnapshotEvents(b.Section("engine")); err != nil {
		t.Fatal(err)
	}
	return decode(t, b)
}

func decode(t testing.TB, b *snapshot.Builder) *snapshot.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sectionBytes returns the payload of one section of s.
func sectionBytes(t testing.TB, s *snapshot.Snapshot, name string) []byte {
	t.Helper()
	r, err := s.Section(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, r.Remaining())
	for i := range out {
		out[i] = r.U8()
	}
	return out
}

// rawSection wraps payload as the only section of a container.
func rawSection(t testing.TB, name string, payload []byte) *snapshot.Snapshot {
	b := snapshot.NewBuilder()
	w := b.Section(name)
	for _, v := range payload {
		w.U8(v)
	}
	return decode(t, b)
}

// TestDeviceSnapshotRoundTrip: each device restores its section whole, the
// restored devices re-encode the same bytes, and both rigs then run alike.
// The checkpoint holds at least one fault-delayed DMA completion.
func TestDeviceSnapshotRoundTrip(t *testing.T) {
	src := busyDeviceRig()
	if src.lateRX == 0 {
		t.Fatal("no fault-delayed RX completion in flight at the checkpoint")
	}
	snap := encodeDevices(t, src)
	dst := newDeviceRig()
	var st sim.EngineState
	if err := snap.Restore("engine", func(r *snapshot.R) (err error) {
		st, err = sim.ReadEngineState(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	dst.eng.BeginRestore(st.Now)
	for _, name := range deviceSections {
		if err := snap.Restore(name, dst.sections()[name].RestoreState); err != nil {
			t.Fatal(err)
		}
	}
	if err := snap.Restore("faults", dst.inj.RestoreState); err != nil {
		t.Fatal(err)
	}
	if err := dst.eng.FinishRestore(st); err != nil {
		t.Fatal(err)
	}
	again := encodeDevices(t, dst)
	for _, name := range deviceSections {
		if !bytes.Equal(sectionBytes(t, snap, name), sectionBytes(t, again, name)) {
			t.Errorf("%s re-encodes differently after restore", name)
		}
	}
	src.eng.RunUntil(20_000)
	dst.eng.RunUntil(20_000)
	srcRX, _ := src.nic.Stats()
	dstRX, _ := dst.nic.Stats()
	srcSSD, _ := src.ssd.Stats()
	dstSSD, _ := dst.ssd.Stats()
	if src.eng.Ran() != dst.eng.Ran() || src.nic.Transmitted() != dst.nic.Transmitted() || srcRX != dstRX || srcSSD != dstSSD {
		t.Fatalf("restored rig diverged: ran %d/%d, transmitted %d/%d, received %d/%d, ssd completed %d/%d",
			src.eng.Ran(), dst.eng.Ran(), src.nic.Transmitted(), dst.nic.Transmitted(), srcRX, dstRX, srcSSD, dstSSD)
	}
}

// TestDeviceRestoreRejectsEventBeforeClock: an in-flight record timed before
// the restored clock is sim.ErrEventRecord, not a panic in the engine.
func TestDeviceRestoreRejectsEventBeforeClock(t *testing.T) {
	past := func(w *snapshot.W) { w.I64(-3242591731706754320).U64(9) }
	for name, write := range map[string]func(w *snapshot.W){
		"dev/nic0": func(w *snapshot.W) {
			w.U64(1).U64(0).I64(0).I64(0).U64(0).Len(1)
			past(w)
			w.I64s([]int64{1})
			w.Len(0)
		},
		"dev/ssd0": func(w *snapshot.W) {
			w.I64(0).I64(1).U64(0).Len(1)
			past(w)
			w.I64(OpRead).I64(77).I64(0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			b := snapshot.NewBuilder()
			write(b.Section(name))
			snap := decode(t, b)
			d := newDeviceRig()
			d.eng.BeginRestore(checkpointClock)
			err := snap.Restore(name, d.sections()[name].RestoreState)
			if !errors.Is(err, sim.ErrEventRecord) {
				t.Fatalf("restore returned %v, want sim.ErrEventRecord", err)
			}
			if d.eng.Pending() != 0 {
				t.Fatalf("%d events re-created from a refused record", d.eng.Pending())
			}
		})
	}
}

// FuzzDeviceRestore holds the NIC and SSD restore halves, run
// through snapshot.Restore without the machine's recover, to two
// properties on arbitrary section bytes: they never panic, and a section
// they accept re-encodes to exactly its own bytes.
func FuzzDeviceRestore(f *testing.F) {
	f.Add([]byte{})
	snap := encodeDevices(f, busyDeviceRig())
	for _, name := range deviceSections {
		f.Add(sectionBytes(f, snap, name))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, name := range deviceSections {
			d := newDeviceRig()
			d.eng.BeginRestore(checkpointClock)
			c := d.sections()[name]
			if err := rawSection(t, name, payload).Restore(name, c.RestoreState); err != nil {
				continue
			}
			b := snapshot.NewBuilder()
			d.eng.BeginSnapshot()
			if err := c.SnapshotState(b.Section(name)); err != nil {
				t.Fatalf("%s: re-encoding a restored section: %v", name, err)
			}
			if again := sectionBytes(t, decode(t, b), name); !bytes.Equal(again, payload) {
				t.Fatalf("%s: accepted section re-encodes differently:\n got %x\nwant %x", name, again, payload)
			}
		}
	})
}
