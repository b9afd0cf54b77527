package faultinject

import "testing"

func TestZeroPlanYieldsNilInjector(t *testing.T) {
	if New(Plan{}) != nil {
		t.Fatal("zero plan must yield the nil (faults-off) injector")
	}
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	if !Default().Enabled() {
		t.Fatal("default plan reports disabled")
	}
	if New(Default()) == nil {
		t.Fatal("default plan yields nil injector")
	}
}

// Every method must be safe (and inert) on a nil receiver — layers hold the
// possibly-nil pointer and call unconditionally.
func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if d := i.DMADelivery("x"); d != 0 {
		t.Fatal("nil DMADelivery injected")
	}
	if _, ok := i.SpuriousWake(); ok {
		t.Fatal("nil SpuriousWake injected")
	}
	if _, ok := i.CoalesceWake(); ok {
		t.Fatal("nil CoalesceWake injected")
	}
	if i.TransferFault("RF") {
		t.Fatal("nil TransferFault injected")
	}
	if i.TransferRetries() != 0 || i.TransferRetryCost() != 0 {
		t.Fatal("nil retry budget nonzero")
	}
	if _, ok := i.RequestFault(); ok {
		t.Fatal("nil RequestFault injected")
	}
	if i.Stats() != (Stats{}) {
		t.Fatal("nil stats nonzero")
	}
	i.SetTracer(nil, nil, "") // must not panic
}

// Equal plans draw byte-identical fault schedules: the whole differential
// methodology depends on this.
func TestDeterministicSchedule(t *testing.T) {
	draw := func() []int64 {
		i := New(Default())
		var log []int64
		for n := 0; n < 500; n++ {
			switch n % 4 {
			case 0:
				log = append(log, int64(i.DMADelivery("nic-rx")))
			case 1:
				d, ok := i.SpuriousWake()
				if ok {
					log = append(log, int64(d))
				}
			case 2:
				if i.TransferFault("L2") {
					log = append(log, 1)
				}
			case 3:
				p, ok := i.RequestFault()
				if ok {
					log = append(log, int64(p))
				}
			}
		}
		return log
	}
	a, b := draw(), draw()
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("schedules diverge at %d: %d vs %d", k, a[k], b[k])
		}
	}
}

func TestStatsCountByClass(t *testing.T) {
	i := New(Plan{Seed: 1, SpuriousWakeP: 1, RequestFaultP: 1})
	for n := 0; n < 3; n++ {
		if _, ok := i.SpuriousWake(); !ok {
			t.Fatal("P=1 spurious wake did not fire")
		}
	}
	if _, ok := i.RequestFault(); !ok {
		t.Fatal("P=1 request fault did not fire")
	}
	s := i.Stats()
	if s.SpuriousWakes != 3 || s.RequestFaults != 1 || s.DMADelayed != 0 {
		t.Fatalf("stats %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

// Sparse plans (probabilities only) get working latency/penalty defaults.
func TestSparsePlanDefaults(t *testing.T) {
	i := New(Plan{Seed: 1, SpuriousWakeP: 1, RequestFaultP: 1, TransferErrP: 1})
	d, ok := i.SpuriousWake()
	if !ok || d <= 0 {
		t.Fatalf("spurious delay %d", d)
	}
	p, ok := i.RequestFault()
	if !ok || p <= 0 {
		t.Fatalf("request penalty %d", p)
	}
	if i.TransferRetries() <= 0 || i.TransferRetryCost() <= 0 {
		t.Fatal("retry defaults missing")
	}
}
