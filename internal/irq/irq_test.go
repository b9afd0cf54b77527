package irq

import (
	"testing"

	"nocs/internal/hwthread"
	"nocs/internal/sim"
)

type fakeCore struct {
	delays []sim.Cycles
	woken  []hwthread.PTID
}

func (f *fakeCore) InjectDelay(p hwthread.PTID, d sim.Cycles) { f.delays = append(f.delays, d) }
func (f *fakeCore) WakeFromHalt(p hwthread.PTID)              { f.woken = append(f.woken, p) }

func TestDefaults(t *testing.T) {
	c := NewController(sim.SoloShard(sim.NewEngine(nil)))
	got := c.Costs()
	if got.Entry != 600 || got.Exit != 300 || got.Controller != 100 ||
		got.IPISend != 400 || got.IPIReceive != 700 {
		t.Fatalf("defaults: %+v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewController(sim.SoloShard(sim.NewEngine(nil)))
	fc := &fakeCore{}
	if err := c.Register(3, nil, 0, func(Vector, sim.Cycles) sim.Cycles { return 0 }); err == nil {
		t.Fatal("nil core accepted")
	}
	if err := c.Register(3, fc, 0, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := c.Register(3, fc, 0, func(Vector, sim.Cycles) sim.Cycles { return 0 }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.idt[3]; !ok {
		t.Fatal("vector 3 not registered")
	}
	if _, ok := c.idt[4]; ok {
		t.Fatal("vector 4 registered")
	}
}

func TestRaiseDeliversAfterControllerLatency(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	c := NewController(eng)
	fc := &fakeCore{}
	var handlerAt sim.Cycles
	c.Register(32, fc, 1, func(v Vector, at sim.Cycles) sim.Cycles {
		handlerAt = at
		return 250
	})
	predicted := c.Raise(32)
	eng.Run(0)
	if handlerAt != 100 {
		t.Fatalf("handler invoked at %v, want 100 (controller latency)", handlerAt)
	}
	if predicted != 100+600 {
		t.Fatalf("predicted handler start %v, want 700", predicted)
	}
	if len(fc.woken) != 1 || fc.woken[0] != 1 {
		t.Fatalf("woken: %v", fc.woken)
	}
	// Stolen time = entry + handler + exit = 600+250+300.
	if len(fc.delays) != 1 || fc.delays[0] != 1150 {
		t.Fatalf("delays: %v", fc.delays)
	}
	raised, delivered, spurious, _ := c.Stats()
	if raised != 1 || delivered != 1 || spurious != 0 {
		t.Fatalf("stats %d/%d/%d", raised, delivered, spurious)
	}
}

func TestSpuriousVector(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	c := NewController(eng)
	if got := c.Raise(99); got != 0 {
		t.Fatalf("spurious raise returned %v", got)
	}
	eng.Run(0)
	raised, delivered, spurious, _ := c.Stats()
	if raised != 1 || delivered != 0 || spurious != 1 {
		t.Fatalf("stats %d/%d/%d", raised, delivered, spurious)
	}
}

func TestMultipleVectorsIndependent(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	c := NewController(eng)
	fc1, fc2 := &fakeCore{}, &fakeCore{}
	var order []Vector
	c.Register(1, fc1, 0, func(v Vector, at sim.Cycles) sim.Cycles { order = append(order, v); return 10 })
	c.Register(2, fc2, 0, func(v Vector, at sim.Cycles) sim.Cycles { order = append(order, v); return 10 })
	c.Raise(2)
	c.Raise(1)
	eng.Run(0)
	// Same latency, FIFO at equal timestamps: 2 then 1.
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order: %v", order)
	}
	if len(fc1.delays) != 1 || len(fc2.delays) != 1 {
		t.Fatal("per-core delivery")
	}
}

func TestReregisterReplaces(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	c := NewController(eng)
	fc := &fakeCore{}
	first, second := 0, 0
	c.Register(5, fc, 0, func(Vector, sim.Cycles) sim.Cycles { first++; return 0 })
	c.Register(5, fc, 0, func(Vector, sim.Cycles) sim.Cycles { second++; return 0 })
	c.Raise(5)
	eng.Run(0)
	if first != 0 || second != 1 {
		t.Fatalf("handlers ran %d/%d", first, second)
	}
}

func TestSendIPITimingAndCosts(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	c := NewController(eng)
	snd, rcv := &fakeCore{}, &fakeCore{}
	var fnAt sim.Cycles
	ran := false
	c.SendIPI(snd, 0, rcv, 3, func() sim.Cycles {
		fnAt = eng.Now()
		ran = true
		return 120
	})
	// Sender pays immediately.
	if len(snd.delays) != 1 || snd.delays[0] != 400 {
		t.Fatalf("sender delays: %v", snd.delays)
	}
	eng.Run(0)
	if !ran || fnAt != 400 {
		t.Fatalf("ipi fn at %v, ran=%v", fnAt, ran)
	}
	if len(rcv.woken) != 1 || rcv.woken[0] != 3 {
		t.Fatalf("receiver woken: %v", rcv.woken)
	}
	if len(rcv.delays) != 1 || rcv.delays[0] != 700+120 {
		t.Fatalf("receiver delays: %v", rcv.delays)
	}
	_, _, _, ipis := c.Stats()
	if ipis != 1 {
		t.Fatalf("ipis = %d", ipis)
	}
}

func TestSendIPINilFn(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	c := NewController(eng)
	snd, rcv := &fakeCore{}, &fakeCore{}
	c.SendIPI(snd, 0, rcv, 0, nil)
	eng.Run(0)
	if len(rcv.delays) != 1 || rcv.delays[0] != 700 {
		t.Fatalf("receiver delays: %v", rcv.delays)
	}
}
