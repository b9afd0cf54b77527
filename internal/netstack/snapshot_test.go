package netstack

import (
	"bytes"
	"fmt"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

// snapRig builds a machine with a Nocs kernel, a NIC, a stack with two bound
// sockets, and an app thread parked on socket 80's doorbell, then attaches
// the kernel and stack as machine snapshot components. Every rig built by
// this helper is identical, so a snapshot of one restores into another.
func snapRig(t *testing.T) (*machine.Machine, *device.NIC, *Stack, *Socket, *Socket) {
	t.Helper()
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x100000, BufBase: 0x200000,
		TailAddr: 0x300000, HeadAddr: 0x300008,
		TXRingBase: 0x310000, TXDoorbell: 0x9100_0000, TXCompAddr: 0x320000,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(k, nic, Config{
		SocketBase: 0x500000, BufBase: 0x580000, SendMailbox: 0x5F0000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s80, err := st.Bind(80)
	if err != nil {
		t.Fatal(err)
	}
	s443, err := st.Bind(443)
	if err != nil {
		t.Fatal(err)
	}
	app := asm.MustAssemble("app", `
main:
	monitor r1      ; r1 = socket doorbell
	mwait
	ld r2, [r1+0]   ; delivered count
	halt
`)
	if err := m.Core(0).BindProgram(0, app, "main"); err != nil {
		t.Fatal(err)
	}
	m.Core(0).Threads().Context(0).Regs.GPR[1] = s80.DoorbellAddr()
	m.Core(0).BootStart(0)
	m.AttachSnapshotter("nocs", 0, k)
	m.AttachSnapshotter("netstack", 0, st)
	m.Run(0) // park the stack service and the app
	return m, nic, st, s80, s443
}

// stackScript is a deterministic delivery schedule: a packet every 1000
// cycles, alternating ports, with a burst at 5000 so a checkpoint probed
// just after it lands mid-pipeline.
type stackDelivery struct {
	at  sim.Cycles
	pkt []int64
}

func stackScript() []stackDelivery {
	var sc []stackDelivery
	for i := 1; i <= 10; i++ {
		port := int64(80)
		if i%2 == 0 {
			port = 443
		}
		sc = append(sc, stackDelivery{sim.Cycles(i * 1000), []int64{port, int64(i), int64(100 + i)}})
	}
	// Burst: three back-to-back packets at the checkpoint anchor.
	sc = append(sc,
		stackDelivery{5000, []int64{80, 50, 1}},
		stackDelivery{5000, []int64{443, 51, 2}},
		stackDelivery{5000, []int64{80, 52, 3}},
	)
	return sc
}

// playStack replays script entries with from < at <= to against the machine,
// then runs to the deadline. Stopping points never change simulated state,
// so any two rigs fed the same script through the same cycle agree exactly.
func playStack(m *machine.Machine, nic *device.NIC, from, to sim.Cycles) {
	for _, d := range stackScript() {
		if d.at <= from || d.at > to {
			continue
		}
		m.RunUntil(d.at)
		nic.Deliver(d.pkt)
	}
	m.RunUntil(to)
}

func stackFingerprint(m *machine.Machine, st *Stack, s80, s443 *Socket) string {
	ctx := m.Core(0).Threads().Context(0)
	return fmt.Sprintf("now=%d rx=%d nosock=%d malform=%d bp=%d sent=%d busy=%d faults=%d rxHead=%d txSeq=%d "+
		"s80={d=%d p=%d n=%d blk=%v} s443={d=%d p=%d n=%d blk=%v} app={st=%v r2=%d} db=%d/%d",
		m.Now(), st.received, st.dropNoSock, st.dropMalform, st.backpressure,
		st.sent, st.sendBusy, st.svcFaults, st.rxHead, st.txSeq,
		s80.delivered, pending(s80), s80.nacks, s80.blocked,
		s443.delivered, pending(s443), s443.nacks, s443.blocked,
		ctx.State, ctx.Regs.GPR[2],
		m.Core(0).ReadWord(s80.DoorbellAddr()), m.Core(0).ReadWord(s443.DoorbellAddr()))
}

// TestStackSnapshotRoundTripInMachine checkpoints a machine mid-burst —
// with the stack's delayed doorbell publishes still in flight — restores it
// into an identically constructed machine, and requires the restored run to
// finish in exactly the same state as the straight-through run.
func TestStackSnapshotRoundTripInMachine(t *testing.T) {
	const horizon = 14_000

	// Reference: straight through.
	mA, nicA, stA, a80, a443 := snapRig(t)
	playStack(mA, nicA, 0, horizon)
	want := stackFingerprint(mA, stA, a80, a443)

	// Checkpointed run: play to the burst, then probe forward one cycle at
	// a time until a delayed doorbell publish is in flight.
	mB, nicB, stB, b80, b443 := snapRig(t)
	playStack(mB, nicB, 0, 5000)
	cp := sim.Cycles(5000)
	for len(stB.live) == 0 && cp < 6000 {
		cp++
		mB.RunUntil(cp)
	}
	if len(stB.live) == 0 {
		t.Fatal("no in-flight doorbell publish found after the burst; checkpoint would not exercise stack events")
	}
	nLive := len(stB.live)
	var buf bytes.Buffer
	if err := mB.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	playStack(mB, nicB, cp, horizon)
	if got := stackFingerprint(mB, stB, b80, b443); got != want {
		t.Fatalf("checkpointed run diverged from reference:\n got %s\nwant %s", got, want)
	}

	// Restore into a fresh, identically built rig and continue.
	mC, nicC, stC, c80, c443 := snapRig(t)
	if err := mC.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(stC.live) != nLive {
		t.Fatalf("restored stack has %d live events, snapshot had %d", len(stC.live), nLive)
	}
	// Re-snapshot immediately: the bytes must be identical.
	var buf2 bytes.Buffer
	if err := mC.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("restore+snapshot is not byte-identical: %d vs %d bytes", buf.Len(), buf2.Len())
	}
	playStack(mC, nicC, cp, horizon)
	if got := stackFingerprint(mC, stC, c80, c443); got != want {
		t.Fatalf("restored run diverged from reference:\n got %s\nwant %s", got, want)
	}
}

// TestStackRestoreValidation: restoring into a stack with different ports
// bound must fail with a descriptive error, not corrupt state.
func TestStackRestoreValidation(t *testing.T) {
	mB, nicB, _, _, _ := snapRig(t)
	playStack(mB, nicB, 0, 5000)
	var buf bytes.Buffer
	if err := mB.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Same shape, but port 443 becomes 9443.
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x100000, BufBase: 0x200000,
		TailAddr: 0x300000, HeadAddr: 0x300008,
		TXRingBase: 0x310000, TXDoorbell: 0x9100_0000, TXCompAddr: 0x320000,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(k, nic, Config{
		SocketBase: 0x500000, BufBase: 0x580000, SendMailbox: 0x5F0000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Bind(80); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Bind(9443); err != nil {
		t.Fatal(err)
	}
	app := asm.MustAssemble("app", `
main:
	halt
`)
	if err := m.Core(0).BindProgram(0, app, "main"); err != nil {
		t.Fatal(err)
	}
	m.Core(0).BootStart(0)
	m.AttachSnapshotter("nocs", 0, k)
	m.AttachSnapshotter("netstack", 0, st)
	m.Run(0)

	err = m.Restore(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("restore with mismatched ports succeeded")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("port")) {
		t.Fatalf("error does not mention the port mismatch: %v", err)
	}
}
