package fs

import (
	"fmt"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/sim"
	"nocs/internal/ukernel"
)

const fsMailbox = 0x640000

func rig(t *testing.T, slots int) (*machine.Machine, *FS, *kernel.BlockDev) {
	t.Helper()
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	ssd, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x400000, CQBase: 0x410000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x420000,
		BaseLatency: 3000, PerWord: 2,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := kernel.NewBlockDev(k, ssd, 0x430000, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(k, bd, fsMailbox, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = slots
	m.Run(0) // park both services
	return m, f, bd
}

// client builds an asm client that performs the listed (op, arg) calls and
// stores each result into successive words at 0x660000.
func client(t *testing.T, m *machine.Machine, f *FS, ptid hwthread.PTID, slot int, calls [][2]int64) {
	t.Helper()
	src := "main:\n\tmovi r14, 0x660000\n"
	for i, cpair := range calls {
		src += fmt.Sprintf("\tmovi r2, %d\n\tmovi r3, %d\n", cpair[0], cpair[1])
		src += ukernel.ClientCallSource(fmt.Sprintf("c%d_%d", ptid, i))
		src += fmt.Sprintf("\tst [r14+%d], r1\n", i*8)
	}
	src += "\thalt\n"
	prog := asm.MustAssemble("client", src)
	if err := m.Core(0).BindProgram(ptid, prog, "main"); err != nil {
		t.Fatal(err)
	}
	f.SetupClientRegs(m.Core(0).Threads().Context(ptid), slot)
	if err := m.Core(0).BootStart(ptid); err != nil {
		t.Fatal(err)
	}
}

func results(m *machine.Machine, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Mem().Read(0x660000 + int64(i)*8)
	}
	return out
}

func TestCreateWriteReadChain(t *testing.T) {
	m, f, bd := rig(t, 4)
	start := m.Now()
	client(t, m, f, 0, 0, [][2]int64{
		{OpCreate, 12345}, // -> fid 0
		{OpWrite, 0},      // write fid 0's block
		{OpRead, 0},       // read it back
		{OpStat, 0},       // lba of fid 0
	})
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	ctx := m.Core(0).Threads().Context(0)
	if ctx.State != hwthread.Disabled {
		t.Fatalf("client stuck: %v (pc=%d)", ctx.State, ctx.Regs.PC)
	}
	got := results(m, 4)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("results: %v (fid, write ok, read ok, lba)", got)
	}
	creates, writes, reads, stats, errs := f.Stats()
	if creates != 1 || writes != 1 || reads != 1 || stats != 1 || errs != 0 {
		t.Fatalf("fs stats %d/%d/%d/%d/%d", creates, writes, reads, stats, errs)
	}
	bdReads, bdWrites, bdErrs, inFlight := bd.Stats()
	if bdReads != 1 || bdWrites != 1 || bdErrs != 0 || inFlight != 0 {
		t.Fatalf("driver stats %d/%d/%d/%d", bdReads, bdWrites, bdErrs, inFlight)
	}
	// Two block ops at 3016+ cycles each must dominate the elapsed time.
	if m.Now()-start < 2*3000 {
		t.Fatalf("chain too fast: %v", m.Now()-start)
	}
}

func TestCreateIsIdempotentPerName(t *testing.T) {
	m, f, _ := rig(t, 4)
	client(t, m, f, 0, 0, [][2]int64{
		{OpCreate, 111},
		{OpCreate, 222},
		{OpCreate, 111}, // same name -> same fid
	})
	m.Run(0)
	got := results(m, 3)
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("fids: %v", got)
	}
	if len(f.files) != 2 {
		t.Fatalf("files = %d", len(f.files))
	}
}

func TestBadFidAndBadOp(t *testing.T) {
	m, f, _ := rig(t, 4)
	client(t, m, f, 0, 0, [][2]int64{
		{OpRead, 99}, // no such file
		{OpStat, 99},
		{77, 0}, // unknown op
	})
	m.Run(0)
	got := results(m, 3)
	if got[0] != -1 || got[1] != -1 || got[2] != -1 {
		t.Fatalf("error returns: %v", got)
	}
	_, _, _, _, errs := f.Stats()
	if errs != 3 {
		t.Fatalf("errs = %d", errs)
	}
}

func TestConcurrentClientsSerializeOnDriver(t *testing.T) {
	// Two clients each do create+write: the FS serializes block I/O through
	// its single driver slot, so everything completes and nothing is lost.
	m, f, bd := rig(t, 4)
	client(t, m, f, 0, 0, [][2]int64{{OpCreate, 1}, {OpWrite, 0}})
	client(t, m, f, 1, 1, [][2]int64{{OpCreate, 2}, {OpWrite, 1}})
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	for i := 0; i < 2; i++ {
		if m.Core(0).Threads().Context(hwthread.PTID(i)).State != hwthread.Disabled {
			t.Fatalf("client %d stuck", i)
		}
	}
	_, writes, _, _, errs := f.Stats()
	if writes != 2 || errs != 0 {
		t.Fatalf("writes=%d errs=%d", writes, errs)
	}
	_, bdWrites, _, inFlight := bd.Stats()
	if bdWrites != 2 || inFlight != 0 {
		t.Fatalf("driver writes=%d inflight=%d", bdWrites, inFlight)
	}
	if len(f.files) != 2 {
		t.Fatalf("files=%d", len(f.files))
	}
}

func TestValidation(t *testing.T) {
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	ssd, _ := m.NewSSD(device.SSDConfig{
		SQBase: 0x400000, CQBase: 0x410000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x420000,
	}, device.Signal{})
	bd, _ := kernel.NewBlockDev(k, ssd, 0x430000, 1)
	if _, err := New(k, bd, fsMailbox, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestMetadataOpsNeedNoDeviceTime(t *testing.T) {
	m, f, _ := rig(t, 4)
	start := m.Now()
	client(t, m, f, 0, 0, [][2]int64{{OpCreate, 5}, {OpStat, 0}})
	m.Run(0)
	elapsed := m.Now() - start
	// Pure metadata: well under one device latency (3000).
	if elapsed >= 3000 {
		t.Fatalf("metadata ops took %v", elapsed)
	}
	_ = sim.Cycles(0)
}
