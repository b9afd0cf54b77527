// Package nocs is a deterministic discrete-event reproduction of the
// hardware threading architecture proposed in "A Case Against (Most)
// Context Switches" (Humphries, Kaffes, Mazières, Kozyrakis — HotOS 2021).
//
// The module root holds the benchmark harness (bench_test.go — one
// testing.B per reproduced table/figure) and the cross-subsystem
// integration tests. The implementation lives under internal/:
//
//   - internal/sim        — virtual clock, event engine, deterministic RNG
//   - internal/isa, asm   — the ISA with the paper's §3.1 instructions
//   - internal/mem        — memory, MMIO, caches, DMA
//   - internal/monitor    — generalized monitor/mwait (DMA-visible)
//   - internal/hwthread   — ptids, TDT permissions, exception descriptors
//   - internal/statestore — §4 thread-state storage tiers
//   - internal/pipeline   — SMT slots, hardware RR/PS, priorities
//   - internal/core       — the core model (+ legacy mode)
//   - internal/machine    — multicore machines and device wiring
//   - internal/device     — NIC, SSD
//   - internal/irq        — legacy interrupts and IPIs
//   - internal/kernel     — legacy & nocs kernel personalities
//   - internal/hypervisor — VM-exit handling, trusted to fully untrusted
//   - internal/ukernel    — microkernel services, mailbox IPC
//   - internal/netstack   — network stack as a parked hardware thread
//   - internal/workload, metrics, bench — experiments
//
// Entry points: cmd/nocsim (experiment runner), cmd/nocsasm (assembler),
// and the seven programs under examples/. See README.md, DESIGN.md, and
// EXPERIMENTS.md.
package nocs
