package modelcheck

// Exhaustive check of the fast protocol's stability argument (the
// subtlest in the library: fast-phase demotions, the level cap, the
// backup handoff and the claim Stable ⇔ one leader output). The checked
// machine is the real one — fastelect's tick map and compiled level
// table — in the smallest parameterization L=1, AlphaL=2, with the
// streak counter folded into the node state for H=1 (every initiator
// interaction ticks) and H=2.
//
// felStep below is an independent re-implementation of the rules as a
// pure function, kept as an oracle for the compiled machine:
//
//   - fast-phase node state is (status, level ∈ {0,1}) — level 2 switches
//     to the backup within the same interaction;
//   - backup node state is one of the six token-machine states with the
//     level pinned at the cap.
//
// Its encoding: 0..3 = fast (status*2+level, status 1=leader), 4..9 =
// backup (4+tokenState).

import (
	"fmt"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/fastelect"
)

const (
	felL      = 1
	felAlphaL = 2
)

type felState struct {
	backup bool
	leader bool // fast-phase status; meaningless in backup
	level  int  // 0..2; always 2 in backup
	tok    core.TokenState
}

func felDecode(s byte) felState {
	if s >= 4 {
		return felState{backup: true, level: felAlphaL, tok: core.TokenState(s - 4)}
	}
	return felState{leader: s&2 != 0, level: int(s & 1)}
}

func felEncode(s felState) byte {
	if s.backup {
		return 4 + byte(s.tok)
	}
	code := byte(s.level)
	if s.leader {
		code |= 2
	}
	return code
}

// felStep mirrors fastelect.Protocol.Step rule for rule at H=1.
func felStep(a, b byte) (byte, byte) {
	u, v := felDecode(a), felDecode(b)
	// Rule 1: initiator (H=1: always completes) gains a level if a
	// fast-phase leader below the cap.
	if !u.backup && u.leader && u.level < felAlphaL {
		u.level++
	}
	// Rules 2+3.
	if u.level != v.level {
		maxLvl := u.level
		lo := &v
		if v.level > u.level {
			maxLvl = v.level
			lo = &u
		}
		if maxLvl >= felL {
			if !lo.backup && lo.leader {
				lo.leader = false
			}
			if !u.backup {
				u.level = maxLvl
			}
			if !v.backup {
				v.level = maxLvl
			}
		}
	}
	// Backup entry at the cap.
	enter := func(x *felState) {
		if x.level == felAlphaL && !x.backup {
			x.backup = true
			if x.leader {
				x.tok = core.CandidateBlack
			} else {
				x.tok = core.FollowerNone
			}
		}
	}
	enter(&u)
	enter(&v)
	// Backup token step.
	if u.backup && v.backup {
		u.tok, v.tok = core.TokenTransition(u.tok, v.tok)
	}
	return felEncode(u), felEncode(v)
}

// felLeader reports whether felStep's state s outputs leader.
func felLeader(s byte) bool {
	st := felDecode(s)
	if st.backup {
		return st.tok.Candidate()
	}
	return st.leader
}

// felToReal maps felStep's encoding to fastelect's level-machine state
// (fast: level*2+status; backup: 2·AlphaL+tokenState, the same 4..9).
func felToReal(s byte) byte {
	if s >= 4 {
		return s
	}
	return (s&1)<<1 | s>>1
}

// realMachine is fastelect's compiled machine at H=h, L=1, AlphaL=2 with
// the streak counter folded in: node state streak·k + level-machine
// state, where k = 10.
func realMachine(t *testing.T, h int) (Machine, byte) {
	params := fastelect.Params{H: h, L: felL, AlphaL: felAlphaL}
	tab := fastelect.LevelTable(params)
	if tab == nil {
		t.Fatal("no level table")
	}
	k := byte(params.States())
	step := func(a, b byte) (byte, byte) {
		streak, sa, sb := a/k+1, a%k, b%k
		if int(streak) == h {
			streak, sa = 0, byte(params.Tick(uint32(sa)))
		}
		na, nb := tab.Next(sa, sb)
		return streak*k + na, nb // the responder's streak resets
	}
	output := func(s byte) byte {
		if tab.Role(s%k) == core.Leader {
			return 1
		}
		return 0
	}
	return Machine{
		Name:   fmt.Sprintf("fastelect-h%d-l1-a2", h),
		States: h * int(k),
		Step:   step,
		Output: output,
		// The protocol's O(1) predicate: the table's stability gap
		// (#leaders + #white − 1) is zero.
		StablePredicate: func(counts []int) bool {
			gap := -tab.GapTarget()
			for s, c := range counts {
				gap += c * tab.GapWeight(byte(s)%k)
			}
			return gap == 0
		},
		Correct: func(outputs []byte) bool {
			leaders := 0
			for _, o := range outputs {
				if o == 1 {
					leaders++
				}
			}
			return leaders == 1
		},
	}, byte(params.FastState(0, true))
}

// leaderInvariant is the liveness invariant of Section 5.2: at least one
// node outputs leader in every reachable configuration.
func leaderInvariant(m Machine) func(cfg []byte) error {
	return func(cfg []byte) error {
		for _, s := range cfg {
			if m.Output(s) == 1 {
				return nil
			}
		}
		return fmt.Errorf("no leader output in configuration %v", cfg)
	}
}

// TestFastMachineExhaustive model-checks fastelect's compiled machine
// over every schedule on small graphs: Stable() ⇔ true stability, every
// stable configuration has exactly one leader, at least one leader
// always exists, and every reachable configuration can still stabilize
// (via the backup when the tournament deadlocks at the cap).
func TestFastMachineExhaustive(t *testing.T) {
	graphs := []graph.Graph{
		graph.Path(2),
		graph.Path(3),
		graph.Cycle(3),
		graph.Star(4),
		graph.Cycle(4),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			for _, h := range []int{1, 2} {
				m, start := realMachine(t, h)
				initial := make([]byte, g.N())
				for i := range initial {
					initial[i] = start // leader, level 0, empty streak
				}
				res, err := Check(g, m, initial, leaderInvariant(m))
				if err != nil {
					t.Fatalf("h=%d: %v", h, err)
				}
				if res.Stable == 0 {
					t.Fatalf("h=%d: no stable configuration reachable", h)
				}
				t.Logf("%s h=%d: %d reachable, %d stable", g.Name(), h, res.Reachable, res.Stable)
			}
		})
	}
}

// TestFastMachineMatchesRealProtocol cross-validates the pure
// re-implementation felStep against fastelect's tick map plus level
// table at H=1 on all 10×10 state pairs.
func TestFastMachineMatchesRealProtocol(t *testing.T) {
	params := fastelect.Params{H: 1, L: felL, AlphaL: felAlphaL}
	tab := fastelect.LevelTable(params)
	if tab == nil || tab.K() != 10 {
		t.Fatalf("level table %v, want 10 states", tab)
	}
	for a := byte(0); a < 10; a++ {
		for b := byte(0); b < 10; b++ {
			na, nb := felStep(a, b)
			ra, rb := tab.Next(byte(params.Tick(uint32(felToReal(a)))), felToReal(b))
			if felToReal(na) != ra || felToReal(nb) != rb {
				t.Fatalf("pair (%d,%d): felStep gives (%d,%d), fastelect (%d,%d) in its encoding",
					a, b, felToReal(na), felToReal(nb), ra, rb)
			}
		}
		if leader := tab.Role(felToReal(a)) == core.Leader; leader != felLeader(a) {
			t.Fatalf("state %d: fastelect says leader=%v", a, leader)
		}
	}
}
