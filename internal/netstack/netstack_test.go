package netstack

import (
	"bytes"
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

func rig(t *testing.T) (*machine.Machine, *device.NIC, *Stack) {
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
	m.Run(0) // park the stack
	return m, nic, st
}

// recv pops the next packet from sk's ring, as an application would.
func recv(sk *Socket) ([]int64, bool) {
	buf := make([]int64, 64)
	n, ok := sk.RecvInto(buf)
	return buf[:n], ok
}

// pending reports packets delivered to sk but not yet consumed.
func pending(sk *Socket) int64 {
	c := sk.st.k.Core()
	return c.ReadWord(sk.base+sockDoorbell) - c.ReadWord(sk.base+sockConsumed)
}

func TestBindAndDemux(t *testing.T) {
	m, nic, st := rig(t)
	s80, err := st.Bind(80)
	if err != nil {
		t.Fatal(err)
	}
	s443, err := st.Bind(443)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Bind(80); err == nil {
		t.Fatal("double bind accepted")
	}

	nic.Deliver([]int64{80, 9999, 11, 22}) // -> s80
	nic.Deliver([]int64{443, 9999, 33})    // -> s443
	nic.Deliver([]int64{7777, 9999, 44})   // unbound -> dropped
	m.Run(0)

	if pending(s80) != 1 || pending(s443) != 1 {
		t.Fatalf("pending %d/%d", pending(s80), pending(s443))
	}
	p, ok := recv(s80)
	if !ok || len(p) != 4 || p[2] != 11 || p[3] != 22 {
		t.Fatalf("s80 recv: %v %v", p, ok)
	}
	p, ok = recv(s443)
	if !ok || p[2] != 33 {
		t.Fatalf("s443 recv: %v", p)
	}
	if _, ok := recv(s80); ok {
		t.Fatal("recv from drained socket")
	}
	rx, drop, _ := st.Stats()
	if rx != 2 || drop != 1 {
		t.Fatalf("stats rx=%d drop=%d", rx, drop)
	}
}

func TestSocketDoorbellWakesApp(t *testing.T) {
	m, nic, st := rig(t)
	sock, err := st.Bind(80)
	if err != nil {
		t.Fatal(err)
	}
	// Application thread blocks on its socket doorbell in assembly.
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
	m.Core(0).Threads().Context(0).Regs.GPR[1] = sock.DoorbellAddr()
	m.Core(0).BootStart(0)
	m.Run(0) // app parks

	nic.Deliver([]int64{80, 1, 5})
	m.Run(0)
	ctx := m.Core(0).Threads().Context(0)
	if ctx.State != hwthread.Disabled || ctx.Regs.GPR[2] != 1 {
		t.Fatalf("app not woken by socket delivery: state=%v r2=%d", ctx.State, ctx.Regs.GPR[2])
	}
}

// Regression: a full ring used to drop overflow packets. With backpressure
// the stack stalls instead; once the consumer catches up every packet
// arrives, in order, with nothing lost.
func TestRingOverflowBackpressure(t *testing.T) {
	m, nic, st := rig(t)
	sock, err := st.Bind(80)
	if err != nil {
		t.Fatal(err)
	}
	// 20 packets into a 16-slot ring with no consumer.
	for i := 0; i < 20; i++ {
		nic.Deliver([]int64{80, 1, int64(i)})
	}
	m.Run(0)
	if pending(sock) != 16 {
		t.Fatalf("pending %d, want 16", pending(sock))
	}
	_, drop, _ := st.Stats()
	if drop != 0 {
		t.Fatalf("dropped %d, want 0 (backpressure must not lose packets)", drop)
	}
	if sock.Nacks() == 0 {
		t.Fatal("ring-full stall recorded no NACK")
	}
	if got := m.Core(0).ReadWord(sock.base + sockNack); got != sock.Nacks() {
		t.Fatalf("NACK word %d != socket nacks %d", got, sock.Nacks())
	}
	if held := st.PendingRX(); held != 4 {
		t.Fatalf("held in NIC ring %d, want 4", held)
	}

	// Consumer catches up: all 20 packets arrive, in order.
	var got []int64
	for i := 0; i < 20; i++ {
		p, ok := recv(sock)
		if !ok {
			t.Fatalf("packet %d never delivered", i)
		}
		got = append(got, p[2])
		m.Run(0) // consumer write wakes the stalled stack
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("packet %d: payload %d (lost or reordered)", i, v)
		}
	}
	if _, ok := recv(sock); ok {
		t.Fatal("phantom extra packet")
	}
	rx, drop, _ := st.Stats()
	if rx != 20 || drop != 0 || st.PendingRX() != 0 {
		t.Fatalf("final accounting rx=%d drop=%d held=%d, want 20/0/0", rx, drop, st.PendingRX())
	}
}

func TestSendBackpressure(t *testing.T) {
	m, nic, st := rig(t)
	var wire [][]int64
	nic.OnTransmit = func(p []int64) { wire = append(wire, append([]int64(nil), p...)) }
	c := m.Core(0)
	const a, b = 0x700000, 0x700100
	c.WriteWord(a, 1)
	c.WriteWord(a+8, 2)
	c.WriteWord(a+16, 111)
	c.WriteWord(b, 3)
	c.WriteWord(b+8, 4)
	c.WriteWord(b+16, 222)

	if !st.Send(a, 3) {
		t.Fatal("send into a free mailbox refused")
	}
	// Mailbox still occupied (stack hasn't run): a blind overwrite here used
	// to silently lose the first packet. Now the post is refused.
	if st.Send(b, 3) {
		t.Fatal("send accepted while mailbox occupied")
	}
	if _, busy := st.Backpressure(); busy != 1 {
		t.Fatalf("sendBusy = %d, want 1", busy)
	}
	// The post lands once the stack drains the mailbox.
	m.Run(0)
	if !st.Send(b, 3) {
		t.Fatal("send refused after the stack drained the mailbox")
	}
	m.Run(0)
	if len(wire) != 2 || wire[0][2] != 111 || wire[1][2] != 222 {
		t.Fatalf("wire: %v, want both packets in post order", wire)
	}
	_, _, sent := st.Stats()
	if sent != 2 {
		t.Fatalf("sent = %d, want 2", sent)
	}
}

func TestSendGoesOutTheNIC(t *testing.T) {
	m, nic, st := rig(t)
	var wire [][]int64
	nic.OnTransmit = func(p []int64) { wire = append(wire, append([]int64(nil), p...)) }

	// Place a payload and post a send.
	const payload = 0x700000
	m.Core(0).WriteWord(payload, 443)
	m.Core(0).WriteWord(payload+8, 80)
	m.Core(0).WriteWord(payload+16, 1234)
	st.Send(payload, 3)
	m.Run(0)

	if len(wire) != 1 || wire[0][0] != 443 || wire[0][2] != 1234 {
		t.Fatalf("wire: %v", wire)
	}
	_, _, sent := st.Stats()
	if sent != 1 || nic.Transmitted() != 1 {
		t.Fatalf("sent=%d transmitted=%d", sent, nic.Transmitted())
	}
}

func TestEchoLoop(t *testing.T) {
	// Full loop: receive on port 7, echo back out the TX ring with ports
	// swapped, observe it on the wire.
	m, nic, st := rig(t)
	sock, err := st.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	var wire [][]int64
	nic.OnTransmit = func(p []int64) { wire = append(wire, append([]int64(nil), p...)) }

	nic.Deliver([]int64{7, 42, 111, 222})
	m.Run(0)
	p, ok := recv(sock)
	if !ok {
		t.Fatal("no packet")
	}
	// Echo: swap ports, reuse payload, send.
	const out = 0x700000
	c := m.Core(0)
	c.WriteWord(out, p[1])
	c.WriteWord(out+8, p[0])
	for i, w := range p[2:] {
		c.WriteWord(out+16+int64(i)*8, w)
	}
	st.Send(out, int64(len(p)))
	m.Run(0)
	if len(wire) != 1 || wire[0][0] != 42 || wire[0][1] != 7 || wire[0][2] != 111 {
		t.Fatalf("echoed: %v", wire)
	}
}

func TestShortPacketDropped(t *testing.T) {
	m, nic, st := rig(t)
	st.Bind(80)
	nic.Deliver([]int64{80}) // too short (needs dst+src)
	m.Run(0)
	_, drop, _ := st.Stats()
	if drop != 1 {
		t.Fatalf("dropped %d", drop)
	}
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
}

// Property: packet conservation — every delivered packet is received into a
// socket ring, counted as dropped (unbound port), or still held in the NIC
// ring by backpressure; and once consumers catch up, nothing remains held.
func TestPacketConservationProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m, nic, st := rig(t)
		s80, _ := st.Bind(80)
		s443, _ := st.Bind(443)
		rng := sim.NewRNG(seed)
		n := 30 + rng.Intn(30)
		for i := 0; i < n; i++ {
			port := []int64{80, 443, 7777}[rng.Intn(3)] // 7777 unbound
			nic.Deliver([]int64{port, 1, int64(i)})
			if rng.Intn(2) == 0 {
				m.Run(0)
			}
		}
		m.Run(0)
		rx, drop, _ := st.Stats()
		delivered, nicDrop := nic.Stats()
		held := uint64(st.PendingRX())
		if rx+drop+held != delivered {
			t.Fatalf("seed %d: rx %d + drop %d + held %d != delivered %d (nic dropped %d)",
				seed, rx, drop, held, delivered, nicDrop)
		}
		// Liveness: drain the consumers; the stack must deliver every held
		// packet and end with nothing unaccounted.
		for iter := 0; st.PendingRX() > 0 || pending(s80) > 0 || pending(s443) > 0; iter++ {
			if iter > 1000 {
				t.Fatalf("seed %d: stack never drained (held %d)", seed, st.PendingRX())
			}
			recv(s80)
			recv(s443)
			m.Run(0)
		}
		rx, drop, _ = st.Stats()
		if rx+drop != delivered {
			t.Fatalf("seed %d: after drain rx %d + drop %d != delivered %d",
				seed, rx, drop, delivered)
		}
	}
}

// asyncRig is rig plus a TX staging area, enabling SendAsync.
func asyncRig(t *testing.T) (*machine.Machine, *device.NIC, *Stack) {
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
		TXStageBase: 0x600000, TXStageEntries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	return m, nic, st
}

// SendAsync must deliver every queued payload in FIFO order even when the
// burst is far deeper than the mailbox (one slot) and the stage ring.
func TestSendAsyncDrainsBurstInOrder(t *testing.T) {
	m, nic, st := asyncRig(t)
	var wire [][]int64
	nic.OnTransmit = func(p []int64) { wire = append(wire, append([]int64(nil), p...)) }
	const n = 50
	for i := 0; i < n; i++ {
		st.SendAsync([]int64{100, 7, int64(1000 + i)})
	}
	if queued, backlog, _ := st.TxQueue(); queued != n || backlog == 0 {
		t.Fatalf("queued=%d backlog=%d after a %d-deep burst", queued, backlog, n)
	}
	m.Run(0)
	if len(wire) != n {
		t.Fatalf("transmitted %d, want %d", len(wire), n)
	}
	for i, p := range wire {
		if p[2] != int64(1000+i) {
			t.Fatalf("packet %d out of order: %v", i, p)
		}
	}
	if _, backlog, _ := st.TxQueue(); backlog != 0 {
		t.Fatalf("backlog %d after drain", backlog)
	}
	// The mailbox is one slot deep, so a 50-deep burst must have hit it busy.
	if _, busy := st.Backpressure(); busy == 0 {
		t.Fatal("no mailbox-busy refusals recorded during the burst")
	}
	_, _, sent := st.Stats()
	if sent != n || nic.Transmitted() != n {
		t.Fatalf("sent=%d transmitted=%d", sent, nic.Transmitted())
	}
}

// An outbox pump backing off at checkpoint time is stack-owned state: a
// machine snapshotted mid-backoff must restore to identical bytes and replay
// the post. Kind 2, once a second send back-off, is reserved: a checkpoint
// carrying it must fail restore with the unknown-kind error.
func TestSendRetrySurvivesCheckpoint(t *testing.T) {
	build := func(t *testing.T) (*machine.Machine, *device.NIC, *Stack) {
		m, nic, st := asyncRig(t)
		m.AttachSnapshotter("nocs", 0, st.k)
		m.AttachSnapshotter("netstack", 0, st)
		return m, nic, st
	}
	checkpoint := func(t *testing.T, kind uint8) []byte {
		mA, _, stA := build(t)
		const a = 0x700000
		for i, v := range []int64{100, 7, 42} {
			mA.Core(0).WriteWord(a+int64(i)*8, v)
		}
		if !stA.Send(a, 3) {
			t.Fatal("first send refused")
		}
		stA.SendAsync([]int64{100, 7, 43}) // mailbox busy: the pump backs off
		if len(stA.live) != 1 || stA.live[0].kind != evTxPump {
			t.Fatalf("live events %v, want one tracked pump", stA.live)
		}
		stA.live[0].kind = kind
		var buf bytes.Buffer
		if err := mA.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	ckpt := checkpoint(t, evTxPump)
	mB, nicB, stB := build(t)
	var wireB [][]int64
	nicB.OnTransmit = func(p []int64) { wireB = append(wireB, append([]int64(nil), p...)) }
	if err := mB.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := mB.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, again.Bytes()) {
		t.Fatal("a restored pump record does not re-encode to the same bytes")
	}
	mB.Run(0)
	if len(wireB) != 2 || wireB[0][2] != 42 || wireB[1][2] != 43 {
		t.Fatalf("restored wire: %v, want both packets in post order", wireB)
	}
	if _, _, sent := stB.Stats(); sent != 2 {
		t.Fatalf("restored sent=%d", sent)
	}

	mC, _, _ := build(t)
	err := mC.Restore(bytes.NewReader(checkpoint(t, 2)))
	if err == nil || !strings.Contains(err.Error(), "unknown kind 2") {
		t.Fatalf("restore of a kind-2 stack event: %v, want the unknown-kind error", err)
	}
}

// TestSendAsyncRoundTripAllocFree: once warm, a SendAsync that posts at
// once plus one that waits for the pump, carried through the NIC's TX ring
// to OnTransmit, allocate nothing: the outbox copies each payload into a
// slot array it keeps, stack events and NIC transmits are recycled bodies,
// and OnTransmit sees the NIC's reused buffer.
func TestSendAsyncRoundTripAllocFree(t *testing.T) {
	m, nic, st := asyncRig(t)
	var sum int64
	nic.OnTransmit = func(p []int64) { sum += p[2] }
	round := func() {
		p := [...]int64{100, 7, 1}
		st.SendAsync(p[:])
		p[2] = 2 // the outbox holds its own copy
		st.SendAsync(p[:])
		m.Run(0)
	}
	for range 32 { // warm every stage slot and grow the recycled bodies
		round()
	}
	sum = 0
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("SendAsync round trip allocates %v times", n)
	}
	if sum != 101*3 {
		t.Fatalf("OnTransmit saw payload sum %d over 101 rounds, want %d", sum, 101*3)
	}
	if _, backlog, _ := st.TxQueue(); backlog != 0 {
		t.Fatalf("backlog %d after drain", backlog)
	}
}
