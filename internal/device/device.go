// Package device models the I/O devices the experiments need: a NIC with an
// RX descriptor ring filled by DMA and a TX ring behind an MMIO doorbell,
// and an NVMe-style SSD queue pair with MMIO doorbells.
//
// Every device signals completions the same two ways the paper contrasts:
//
//   - Memory writes: payload and queue-tail updates are DMA writes to
//     simulated physical memory, visible to the generalized monitor engine.
//     This is the nocs path — "a network thread can wait on the RX queue
//     tail until packet arrival" (§3.1).
//   - Legacy vectors: when a device is bound to the IRQ controller, each
//     completion additionally raises its interrupt vector.
//
// Polling needs no device support at all: software just loads the tail word.
package device

import (
	"nocs/internal/irq"
)

// Signal describes how a device notifies software of completions.
type Signal struct {
	// IRQ, when non-nil, receives Vector on every completion (legacy mode).
	IRQ *irq.Controller
	// Vector is the legacy interrupt vector.
	Vector irq.Vector
}

// raise fires the legacy vector if configured.
func (s Signal) raise() {
	if s.IRQ != nil {
		s.IRQ.Raise(s.Vector)
	}
}
