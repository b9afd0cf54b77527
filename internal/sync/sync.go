// Package sync is a library of synchronization primitives implemented as
// simulated programs on the machine's own architecture (DESIGN.md §14):
// TAS and TTAS spinlocks, an MCS queue lock, a parking mutex, condition
// variables, a barrier, and a futex-analog built on exception descriptors.
//
// Every primitive exists in two flavors, selected the way F-suite
// experiments select context-switch style:
//
//   - Nocs: waiting hardware threads park via monitor/mwait on the
//     primitive's memory words. Release stores wake them directly — no
//     kernel on the blocking path (the paper's §3.1 mechanism).
//   - Legacy: waiting threads either pure-spin (spinlocks, and any
//     primitive without a futex service) or syscall-park through the
//     conventional kernel path (trap + context switch), modeled by the
//     FutexService natives.
//
// Primitives are emitted as assembly fragments (pure ISA: LD/ST plus the
// atomic XCHG/FAA/CAS ops), so the same generators serve the contention
// benchmarks (internal/bench), the differential program generator
// (internal/progen), and the reference model — which interprets the very
// same instructions independently.
package sync

import "fmt"

// Flavor selects the parking mechanism of a primitive.
type Flavor int

const (
	// Nocs parks waiting hardware threads via monitor/mwait.
	Nocs Flavor = iota
	// Legacy spins, or syscall-parks when the primitive is futex-backed.
	Legacy
)

func (f Flavor) String() string {
	if f == Nocs {
		return "nocs"
	}
	return "legacy"
}

// Kind identifies a primitive family.
type Kind int

const (
	TAS Kind = iota
	TTAS
	MCS
	Mutex
	Cond
	Barrier
)

var kindNames = [...]string{
	TAS: "tas", TTAS: "ttas", MCS: "mcs", Mutex: "mutex",
	Cond: "cond", Barrier: "barrier",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Stride is the byte distance between adjacent words of a primitive's
// memory footprint (the machine's word granularity for composite layouts,
// matching the descriptor and FlexSC page conventions).
const Stride = 8

// Regs names the registers an emitted fragment may use. The caller wires
// them to the surrounding program's conventions.
type Regs struct {
	Base string // holds the primitive's base byte address
	Me   string // holds this thread's 0-based slot index (MCS, Barrier)
	Zero string // holds constant 0, never written by fragments
	// Scratch registers; clobbered freely by fragments. Futex-backed
	// fragments additionally clobber the syscall ABI registers r1–r3.
	T1, T2, T3, T4 string
}

// Lock is the common interface of the acquire/release primitives.
type Lock interface {
	// EmitAcquire emits assembly that acquires the lock at [Base].
	EmitAcquire(g *Gen, r Regs)
	// EmitRelease emits assembly that releases the lock at [Base].
	EmitRelease(g *Gen, r Regs)
}

// NewLock builds the lock primitive of the given kind and flavor.
// useFutex selects kernel-parking for the mutex (requires an installed
// FutexService: InstallNocs+ServeSyscalls for Nocs, InstallLegacy for
// Legacy); without it the mutex parks on monitor/mwait (Nocs) or spins
// (Legacy), the pure-ISA forms the differential sweeps use.
func NewLock(k Kind, f Flavor, useFutex bool) (Lock, error) {
	switch k {
	case TAS:
		return SpinLock{TestFirst: false, F: f}, nil
	case TTAS:
		return SpinLock{TestFirst: true, F: f}, nil
	case MCS:
		return MCSLock{F: f}, nil
	case Mutex:
		return ParkingMutex{F: f, UseFutex: useFutex}, nil
	}
	return nil, fmt.Errorf("sync: kind %v is not a lock", k)
}
