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

// deviceRig is one NIC, SSD and timer on a shared engine.
type deviceRig struct {
	eng   *sim.Shard
	m     *mem.Memory
	nic   *NIC
	ssd   *SSD
	timer *Timer
	inj   *faultinject.Injector // the timer's
}

func newDeviceRig() *deviceRig {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	dma := mem.NewDMA(m, mem.SrcDMA)
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
	d.timer = mustTimer(TimerConfig{CounterAddr: 0x100, Period: 700}, eng, mem.NewDMA(m, mem.SrcMSI), Signal{})
	d.inj = faultinject.New(faultinject.Plan{Seed: 7, DMADelayP: 0.9, DMADelayMax: 3000})
	d.timer.SetFaultInjector(d.inj)
	for addr, h := range map[int64]mem.MMIOHandler{0x9000_0000: d.ssd, 0x9100_0000: d.nic} {
		if err := m.MapMMIO(addr, 8, h); err != nil {
			panic(err)
		}
	}
	return d
}

// deviceSections names the rig's sections in a fixed order.
var deviceSections = []string{"dev/nic0", "dev/ssd0", "dev/timer0"}

// sections maps each section name to its device.
func (d *deviceRig) sections() map[string]snapshot.Codec {
	return map[string]snapshot.Codec{"dev/nic0": d.nic, "dev/ssd0": d.ssd, "dev/timer0": d.timer}
}

// busyDeviceRig runs a rig to checkpointClock with RX and TX DMA, an SSD
// command and delayed timer MSIs in flight.
func busyDeviceRig() *deviceRig {
	d := newDeviceRig()
	d.timer.Start()
	d.eng.RunUntil(checkpointClock - 100)
	d.nic.Deliver([]int64{42, 43})
	d.nic.WriteTXDesc(d.m, 0, 0x20000, 2)
	d.m.Write(0x9100_0000, 1, mem.SrcCPU)
	d.ssd.WriteSQE(d.m, 0, OpRead, 1234, 8, 77)
	d.m.Write(0x9000_0000, 1, mem.SrcCPU)
	d.eng.RunUntil(checkpointClock)
	return d
}

// encodeDevices checkpoints every device of d, the timer's fault injector
// and the engine into one container.
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
func TestDeviceSnapshotRoundTrip(t *testing.T) {
	src := busyDeviceRig()
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
	if src.eng.Ran() != dst.eng.Ran() || src.timer.Ticks() != dst.timer.Ticks() || src.nic.Transmitted() != dst.nic.Transmitted() {
		t.Fatalf("restored rig diverged: ran %d/%d", src.eng.Ran(), dst.eng.Ran())
	}
}

// TestDeviceRestoreRejectsEventBeforeClock: an in-flight record timed before
// the restored clock is sim.ErrEventRecord, not a panic in the engine.
func TestDeviceRestoreRejectsEventBeforeClock(t *testing.T) {
	past := func(w *snapshot.W) { w.I64(-3242591731706754320).U64(9) }
	for name, write := range map[string]func(w *snapshot.W){
		"dev/timer0": func(w *snapshot.W) {
			w.Bool(true).U64(3).Bool(true)
			past(w)
			w.Len(0)
		},
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

// FuzzDeviceRestore holds the NIC, SSD and timer restore halves, run
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
