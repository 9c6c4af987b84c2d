package sim_test

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/majority"
	. "popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// fuzzGraph derives a small connected graph deterministically from sel.
func fuzzGraph(sel uint64) graph.Graph {
	a := int(sel >> 2 % 13)
	b := int(sel >> 6 % 7)
	switch sel % 4 {
	case 0:
		return graph.NewClique(3 + a)
	case 1:
		return graph.Cycle(3 + a)
	case 2:
		return graph.Torus2D(3+a%4, 3+b%4)
	default:
		return graph.Lollipop(3+a%6, 1+b)
	}
}

// fuzzProtocol derives a Tabular protocol (a fresh-instance factory)
// from sel for graph g, together with a stability oracle that shares no
// code with the protocol's table: the six-state predicate computed from
// token counts (core.TokenCounts.Stable), and for majority "one opinion
// left" from an output scan — stable on every reachable configuration,
// because the conserved strong difference keeps the winner's strong
// tokens alive.
func fuzzProtocol(sel uint64, g graph.Graph) (func() Tabular, func(Tabular) bool) {
	n := g.N()
	if sel%2 == 0 {
		return func() Tabular { return beauquier.New() }, func(p Tabular) bool {
			var c core.TokenCounts
			for _, s := range p.TableMachine().States() {
				c.Add(core.TokenState(s), 1)
			}
			return c.Stable()
		}
	}
	ones := 1 + int(sel>>1)%(n-1)
	if 2*ones == n {
		ones++ // never a tie; ones < n still holds since n >= 3 here
	}
	inputs := make([]bool, n)
	for i := 0; i < ones; i++ {
		inputs[i] = true
	}
	return func() Tabular { return majority.New(inputs) }, func(p Tabular) bool {
		l := CountLeaders(g, p)
		return l == 0 || l == n
	}
}

// FuzzTableEquivalence fuzzes the protocol-compilation layer: a random
// small graph, a random Tabular protocol and a random interaction
// script. Step by step, the machine's O(1) Leaders and Stable must
// agree with scans that do not use the table; over full runs, the fused
// table kernel, interface dispatch and the reference loop must agree
// byte for byte on Results, outputs, counters and post-run generator
// state.
func FuzzTableEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint16(700), uint8(0))
	f.Add(uint64(1), uint64(2), uint16(513), uint8(1))
	f.Add(uint64(38), uint64(3), uint16(64), uint8(2))
	f.Add(uint64(103), uint64(4), uint16(2000), uint8(3))
	f.Fuzz(func(t *testing.T, gsel, seed uint64, steps uint16, dropSel uint8) {
		g := fuzzGraph(gsel)
		n := g.N()
		factory, stable := fuzzProtocol(gsel>>8, g)
		script := int64(steps)%2048 + 1

		// Part 1: scripted drive through Step, checked after every
		// interaction against the leader scan and the stability oracle.
		r := xrand.New(seed)
		p := factory()
		p.Reset(g, xrand.New(seed))
		if p.TableMachine().Table() == nil {
			t.Fatal("fuzzed protocol has no table")
		}
		for i := int64(0); i < script; i++ {
			u, v := g.SampleEdge(r)
			p.Step(u, v)
			if scan := CountLeaders(g, p); scan != p.Leaders() {
				t.Fatalf("step %d (%d,%d): Leaders() %d, scan %d", i, u, v, p.Leaders(), scan)
			}
			if want := stable(p); p.Stable() != want {
				t.Fatalf("step %d (%d,%d): Stable() %v, oracle %v", i, u, v, p.Stable(), want)
			}
		}

		// Part 2: full runs through the execution plans. The fused table
		// kernel, the interface-dispatch kernel on the same scheduler loop
		// (NoTable) and the generic reference loop must agree on the
		// Result, every output, the O(1) counters (cross-checked against a
		// scan) and the generator's post-run position.
		drop := float64(dropSel%4) * 0.2
		type outcome struct {
			res     Result
			outputs []int
			leaders int
			stable  bool
			draws   [8]uint64
		}
		runVariant := func(noTable, reference bool) outcome {
			p := factory()
			rr := xrand.New(seed)
			res := Run(g, p, rr, Options{
				MaxSteps:  script,
				DropRate:  drop,
				NoTable:   noTable,
				Reference: reference,
			})
			o := outcome{res: res, leaders: p.Leaders(), stable: p.Stable()}
			for v := 0; v < n; v++ {
				o.outputs = append(o.outputs, int(p.Output(v)))
			}
			if scan := CountLeaders(g, p); scan != o.leaders {
				t.Fatalf("noTable=%v reference=%v: Leaders() %d != scan %d", noTable, reference, o.leaders, scan)
			}
			if want := stable(p); o.stable != want || res.Stabilized != want {
				t.Fatalf("noTable=%v reference=%v: Stable() %v, Stabilized %v, oracle %v",
					noTable, reference, o.stable, res.Stabilized, want)
			}
			for i := range o.draws {
				o.draws[i] = rr.Uint64()
			}
			return o
		}
		fused := runVariant(false, false)
		for _, v := range []outcome{runVariant(true, false), runVariant(false, true)} {
			if v.res != fused.res || v.leaders != fused.leaders || v.stable != fused.stable || v.draws != fused.draws {
				t.Fatalf("variants diverged: fused %+v vs %+v", fused, v)
			}
			for w := range v.outputs {
				if v.outputs[w] != fused.outputs[w] {
					t.Fatalf("node %d output diverged: fused %d vs %d", w, fused.outputs[w], v.outputs[w])
				}
			}
		}
	})
}
