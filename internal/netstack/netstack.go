// Package netstack implements a small network stack as a microkernel-style
// service — the architecture the paper attributes to TAS and Snap (§2:
// "I/O-intensive services, which have so far resorted to using dedicated
// cores (TAS, Snap)") but running on a parked hardware thread instead of a
// polling core.
//
// The stack is one service thread that watches the NIC's RX tail and a send
// mailbox. Packets are word sequences:
//
//	word 0: destination port
//	word 1: source port
//	word 2+: payload
//
// Received packets are demultiplexed by destination port into per-socket
// receive rings in memory; each socket has a doorbell word that the stack
// bumps after enqueueing, so applications block on their own socket with
// monitor/mwait (or Socket.RecvInto from Go) and wake per delivery. Sends go
// out through the NIC's TX descriptor ring.
package netstack

import (
	"fmt"

	"nocs/internal/device"
	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/sim"
)

// Per-socket receive ring layout at sock.base (0x400 bytes per socket):
//
//	+0:            doorbell (count of packets ever delivered; monitorable)
//	+8:            consumer count (application publishes)
//	+16 + 16*i:    slot i: payload address, payload words
//	+0x3F8:        NACK/backpressure word (count of ring-full stalls; the
//	               stack bumps it instead of dropping, so senders and
//	               debuggers can observe backpressure; monitorable)
const (
	sockDoorbell  = 0
	sockConsumed  = 8
	sockSlots     = 16
	sockSlotBytes = 16
	sockNack      = 0x3F8
)

// Config lays out the stack's memory.
type Config struct {
	// SocketBase is where per-socket rings are allocated (0x400 bytes each).
	SocketBase int64
	// BufBase is where received payloads are copied (one buffer per ring
	// slot per socket).
	BufBase int64
	// SendMailbox is the mailbox the stack watches for transmit requests.
	SendMailbox int64
	// RingEntries is the per-socket receive ring size (default 16).
	RingEntries int
	// PerPacket is the protocol-processing cost (default 600 cycles).
	PerPacket sim.Cycles
	// TXStageBase, when nonzero, enables the SendAsync outbox: queued
	// payloads are staged here (TXStageEntries slots of 256 bytes) as they
	// are posted, and the slot is not reused until the NIC has transmitted
	// it.
	TXStageBase int64
	// TXStageEntries is the staging-ring size (default 64).
	TXStageEntries int
}

func (c *Config) setDefaults() {
	if c.RingEntries == 0 {
		c.RingEntries = 16
	}
	if c.PerPacket == 0 {
		c.PerPacket = 600
	}
	if c.TXStageEntries == 0 {
		c.TXStageEntries = 64
	}
}

// Stack is the network-stack service.
type Stack struct {
	cfg Config
	k   *kernel.Nocs
	nic *device.NIC
	inj *faultinject.Injector

	sockets map[int64]*Socket // port -> socket
	order   []*Socket         // bind order, for deterministic watch sets
	rxHead  int64

	received     uint64
	dropNoSock   uint64 // no socket bound for the destination port
	dropMalform  uint64 // descriptor not ready / runt packet
	backpressure uint64 // ring-full stalls (packets held, not dropped)
	sent         uint64
	sendBusy     uint64 // Send refused: mailbox still occupied
	svcFaults    uint64 // injected mid-packet thread faults absorbed
	txSeq        int64

	// SendAsync outbox: copies of the payloads accepted but not yet staged
	// and posted. A slot keeps its array when its payload leaves, so a
	// steady-state send allocates nothing.
	outbox    sim.Ring[[]int64]
	staged    int64  // payloads staged-and-posted so far (stage slot cursor)
	txQueued  uint64 // SendAsync payloads ever accepted
	pumpStall uint64 // pump passes that found the stage ring full

	// live tracks the in-flight delayed doorbell publishes and the outbox
	// pump, so a machine checkpoint can claim and re-create them
	// (DESIGN.md §13); free recycles their bodies.
	live []*stackEv
	free sim.FreeList[stackEv]
}

// Event kinds for stackEv. Kind 2 is reserved: it was a second send
// back-off, and checkpoints that carry it are rejected as an unknown kind.
const (
	evSockRx     = uint8(0) // delayed socket doorbell publish
	evTxDoorbell = uint8(1) // delayed NIC TX doorbell ring
	evTxPump     = uint8(3) // SendAsync outbox pump
)

var stackEvNames = [...]string{evSockRx: "sock-rx", evTxDoorbell: "tx-doorbell", evTxPump: "tx-pump"}

// stackEv is a checkpointable in-flight stack event: the delayed doorbell
// publishes and the outbox pump that used to be ad-hoc closures. Each live
// event knows its slot in the stack's live list and unlinks itself when it
// fires.
type stackEv struct {
	st   *Stack
	idx  int
	kind uint8
	sock int        // evSockRx: index into st.order
	val  int64      // doorbell count / tx sequence
	wait sim.Cycles // evTxPump: current backoff spacing
	h    sim.Handle
}

func (e *stackEv) OnEvent() {
	st, kind, wait := e.st, e.kind, e.wait
	c := st.k.Core()
	switch kind {
	case evSockRx:
		c.WriteWord(st.order[e.sock].base+sockDoorbell, e.val)
	case evTxDoorbell:
		c.WriteWord(st.nic.Config().TXDoorbell, e.val)
	}
	st.unlink(e)
	st.free.Put(e)
	if kind == evTxPump {
		st.pumpTick(wait)
	}
}

func (s *Stack) unlink(e *stackEv) {
	last := len(s.live) - 1
	s.live[e.idx] = s.live[last]
	s.live[e.idx].idx = e.idx
	s.live = s.live[:last]
}

// scheduleEv queues a stack event `after` cycles out; wait is a pump's
// current backoff spacing.
func (s *Stack) scheduleEv(kind uint8, sock int, val int64, wait, after sim.Cycles) {
	e := s.free.Get()
	*e = stackEv{st: s, idx: len(s.live), kind: kind, sock: sock, val: val, wait: wait}
	e.h = s.k.Core().Shard().AfterCallback(after, stackEvNames[kind], e)
	s.live = append(s.live, e)
}

// schedulePump queues an outbox pump pass `delay` cycles out carrying its
// current backoff spacing.
func (s *Stack) schedulePump(delay sim.Cycles) { s.scheduleEv(evTxPump, 0, 0, delay, delay) }

func (s *Stack) pumpLive() bool {
	for _, e := range s.live {
		if e.kind == evTxPump {
			return true
		}
	}
	return false
}

// Socket is one bound port's receive ring.
type Socket struct {
	Port int64
	base int64
	st   *Stack
	idx  int
	// delivered is the stack's authoritative count; the doorbell word in
	// memory trails it by the in-flight processing time.
	delivered int64
	// nacks counts ring-full backpressure events on this socket; mirrored
	// to the sockNack word in memory.
	nacks int64
	// blocked marks the ring full: the stack stalls and watches the
	// consumer count until the application catches up.
	blocked bool
}

// New spawns the stack service over the given NIC. The NIC must have its
// transmit side configured (TXDoorbell etc.) for Send to work.
func New(k *kernel.Nocs, nic *device.NIC, cfg Config) (*Stack, error) {
	cfg.setDefaults()
	s := &Stack{cfg: cfg, k: k, nic: nic, sockets: make(map[int64]*Socket)}
	s.inj = k.Core().FaultInjector()
	// The kernel arms the watch set as soon as it is returned, so one buffer
	// serves every pass.
	var addrs []int64
	watch := func() []int64 {
		addrs = append(addrs[:0], nic.TailAddr(), cfg.SendMailbox)
		// While a ring is full the stack stalls; watching the blocked
		// socket's consumer count wakes it the moment the application
		// catches up. The bind-order slice keeps the set deterministic.
		for _, sock := range s.order {
			if sock.blocked {
				addrs = append(addrs, sock.base+sockConsumed)
			}
		}
		return addrs
	}
	_, err := k.SpawnService("netstack", watch, func(t *hwthread.Context) sim.Cycles {
		var cost sim.Cycles
		cost += s.drainRX()
		cost += s.drainSend()
		return cost
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Bind allocates a socket on port. Binding a bound port fails.
func (s *Stack) Bind(port int64) (*Socket, error) {
	if _, dup := s.sockets[port]; dup {
		return nil, fmt.Errorf("netstack: port %d already bound", port)
	}
	idx := len(s.sockets)
	sock := &Socket{
		Port: port,
		base: s.cfg.SocketBase + int64(idx)*0x400,
		st:   s,
		idx:  idx,
	}
	s.sockets[port] = sock
	s.order = append(s.order, sock)
	return sock, nil
}

// drainRX demuxes new NIC packets into socket rings. A full socket ring no
// longer drops: the stack parks the undelivered packet in the NIC ring
// (rxHead stalls, so the NIC's own flow control sees the stall too), bumps
// the socket's NACK word, and watches the consumer count so it resumes the
// moment the application catches up. Every accepted packet is therefore
// either delivered or still queued — never silently lost.
func (s *Stack) drainRX() sim.Cycles {
	c := s.k.Core()
	tail := c.ReadWord(s.nic.TailAddr())
	var cost sim.Cycles
	for ; s.rxHead < tail; s.rxHead++ {
		bufAddr, length, ready := s.nic.ReadDesc(s.rxHead)
		if !ready || length < 2 {
			s.dropMalform++
			continue
		}
		cost += s.cfg.PerPacket
		dst := c.ReadWord(bufAddr)
		sock, ok := s.sockets[dst]
		if !ok {
			s.dropNoSock++
			continue
		}
		consumed := c.ReadWord(sock.base + sockConsumed)
		if sock.delivered-consumed >= int64(s.cfg.RingEntries) {
			// Ring full: backpressure instead of drop. The PerPacket cost
			// charged above is refunded — the packet was not processed.
			cost -= s.cfg.PerPacket
			if !sock.blocked {
				sock.blocked = true
				sock.nacks++
				s.backpressure++
				c.WriteWord(sock.base+sockNack, sock.nacks)
			}
			break
		}
		sock.blocked = false
		if pen, ok := s.inj.RequestFault(); ok {
			// Injected mid-packet thread fault: the service absorbs it by
			// redoing the protocol processing after the fault penalty.
			s.svcFaults++
			cost += pen + s.cfg.PerPacket
		}
		slot := sock.delivered % int64(s.cfg.RingEntries)
		// Copy the payload into the socket's buffer area.
		dstBuf := s.cfg.BufBase + (int64(sock.idx)*int64(s.cfg.RingEntries)+slot)*256
		for i := int64(0); i < length; i++ {
			c.WriteWord(dstBuf+i*8, c.ReadWord(bufAddr+i*8))
		}
		se := sock.base + sockSlots + slot*sockSlotBytes
		c.WriteWord(se, dstBuf)
		c.WriteWord(se+8, length)
		// Doorbell last: monitor waiters see a complete slot.
		sock.delivered++
		s.scheduleEv(evSockRx, sock.idx, sock.delivered, 0, cost)
		s.received++
	}
	// Publish NIC head for flow control.
	if headAddr := s.nic.Config().HeadAddr; headAddr != 0 && tail != s.rxHead {
		c.WriteWord(headAddr, s.rxHead)
	} else if headAddr != 0 {
		c.WriteWord(headAddr, tail)
	}
	return cost
}

// Send mailbox layout at cfg.SendMailbox:
//
//	+0:  status (1 = posted)
//	+8:  source payload address
//	+16: payload words
const (
	sendStatus = 0
	sendAddr   = 8
	sendLen    = 16
)

// drainSend pushes one posted send request into the NIC TX ring.
func (s *Stack) drainSend() sim.Cycles {
	c := s.k.Core()
	if c.ReadWord(s.cfg.SendMailbox+sendStatus) != 1 {
		return 0
	}
	addr := c.ReadWord(s.cfg.SendMailbox + sendAddr)
	length := c.ReadWord(s.cfg.SendMailbox + sendLen)
	c.WriteWord(s.cfg.SendMailbox+sendStatus, 0)
	s.nic.WriteTXDesc(c.Mem(), s.txSeq, addr, length)
	s.txSeq++
	cost := s.cfg.PerPacket/2 + c.AccessCost(s.nic.Config().TXDoorbell)
	s.scheduleEv(evTxDoorbell, 0, s.txSeq, 0, cost)
	s.sent++
	return cost
}

// Send posts a transmit request (Go-side helper; applications in assembly
// write the same mailbox words with ST instructions). It reports whether the
// mailbox was free: a false return means a previous request is still
// pending, and blindly overwriting it would have silently lost that packet.
// SendAsync queues instead and backs off while the mailbox is busy.
func (s *Stack) Send(payloadAddr, words int64) bool {
	c := s.k.Core()
	if c.ReadWord(s.cfg.SendMailbox+sendStatus) != 0 {
		s.sendBusy++
		return false
	}
	c.WriteWord(s.cfg.SendMailbox+sendAddr, payloadAddr)
	c.WriteWord(s.cfg.SendMailbox+sendLen, words)
	c.WriteWord(s.cfg.SendMailbox+sendStatus, 1)
	return true
}

// SendAsync queues a payload for transmission. Unlike Send, it never refuses
// and never overwrites: payloads wait in the stack's outbox, and a
// checkpointable pump stages each one into the TX staging ring (slots are
// reused only after the NIC transmits them) and posts it to the mailbox,
// backing off with a doubling schedule (capped at 8x the pump spacing) while
// the mailbox is busy. The stack always eventually clears the mailbox, so
// backpressure delays a payload instead of losing it, and the pump is a
// tracked stack event, so a checkpoint taken mid-backoff replays exactly.
// FIFO order is preserved. The outbox keeps its own copy of payload, so
// the caller may reuse it as soon as SendAsync returns. Requires
// Config.TXStageBase.
func (s *Stack) SendAsync(payload []int64) {
	if s.cfg.TXStageBase == 0 {
		panic("netstack: SendAsync requires Config.TXStageBase")
	}
	s.txQueued++
	p := s.outbox.Slot()
	*p = append((*p)[:0], payload...)
	// Fast path: nothing ahead of us and the mailbox is free — post now.
	if s.outbox.Len() == 1 && !s.pumpLive() {
		if s.tryPost() {
			return
		}
		s.schedulePump(s.pumpSpacing())
	}
}

// TxQueue reports (payloads accepted by SendAsync, still waiting in the
// outbox, pump passes stalled on a full stage ring).
func (s *Stack) TxQueue() (queued uint64, backlog int, stageStalls uint64) {
	return s.txQueued, s.outbox.Len(), s.pumpStall
}

// pumpSpacing is the gap between successful pump posts — a quarter of the
// per-packet protocol cost, so the outbox drains faster than the stack can
// consume and the mailbox (not the pump) is the limiter.
func (s *Stack) pumpSpacing() sim.Cycles {
	if sp := s.cfg.PerPacket / 4; sp > 1 {
		return sp
	}
	return 1
}

// pumpTick is one outbox pump pass. wait is the spacing that scheduled it;
// on a busy mailbox the next pass doubles it (capped at 8x base), and any
// success resets to base.
func (s *Stack) pumpTick(wait sim.Cycles) {
	if s.outbox.Len() == 0 {
		return
	}
	if s.tryPost() {
		if s.outbox.Len() > 0 {
			s.schedulePump(s.pumpSpacing())
		}
		return
	}
	next := wait * 2
	if max := s.pumpSpacing() * 8; next > max {
		next = max
	}
	s.schedulePump(next)
}

// tryPost stages the outbox head and posts it to the send mailbox. It
// reports false — leaving the outbox untouched — when the stage ring has no
// transmitted slot to reuse or the mailbox is busy.
func (s *Stack) tryPost() bool {
	c := s.k.Core()
	if s.staged-int64(s.nic.Transmitted()) >= int64(s.cfg.TXStageEntries) {
		s.pumpStall++
		return false
	}
	p := s.outbox.Items()[0]
	base := s.cfg.TXStageBase + (s.staged%int64(s.cfg.TXStageEntries))*256
	for i, v := range p {
		c.WriteWord(base+int64(i)*8, v)
	}
	if !s.Send(base, int64(len(p))) {
		return false
	}
	s.staged++
	s.outbox.Pop()
	return true
}

// Stats returns (received, dropped, sent). dropped counts genuinely lost
// packets (no bound socket, malformed descriptor); ring-full events are
// backpressure stalls, not drops — see Backpressure.
func (s *Stack) Stats() (received, dropped, sent uint64) {
	return s.received, s.dropNoSock + s.dropMalform, s.sent
}

// Backpressure returns (ring-full stall events, Send calls refused because
// the mailbox was occupied).
func (s *Stack) Backpressure() (ringStalls, sendBusy uint64) {
	return s.backpressure, s.sendBusy
}

// PendingRX reports NIC-ring packets the stack has accepted but not yet
// demuxed — nonzero while a ring-full stall holds delivery back. Packet
// conservation: received + dropped + PendingRX == NIC-delivered, always.
func (s *Stack) PendingRX() int64 {
	return s.k.Core().ReadWord(s.nic.TailAddr()) - s.rxHead
}

// DoorbellAddr returns the socket's monitorable delivery counter address —
// what an application thread arms monitor on.
func (sk *Socket) DoorbellAddr() int64 { return sk.base + sockDoorbell }

// Nacks returns the socket's ring-full backpressure count.
func (sk *Socket) Nacks() int64 { return sk.nacks }

// RecvInto pops the next packet into buf without allocating, returning the
// payload length (truncated to len(buf)). ok is false when the ring is
// empty. The serving scenarios' app workers consume through it.
func (sk *Socket) RecvInto(buf []int64) (n int, ok bool) {
	c := sk.st.k.Core()
	delivered := c.ReadWord(sk.base + sockDoorbell)
	consumed := c.ReadWord(sk.base + sockConsumed)
	if consumed >= delivered {
		return 0, false
	}
	slot := consumed % int64(sk.st.cfg.RingEntries)
	se := sk.base + sockSlots + slot*sockSlotBytes
	addr := c.ReadWord(se)
	length := c.ReadWord(se + 8)
	n = int(length)
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = c.ReadWord(addr + int64(i)*8)
	}
	c.WriteWord(sk.base+sockConsumed, consumed+1)
	return n, true
}
