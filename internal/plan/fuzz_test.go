package plan

import (
	"testing"
)

// FuzzPlanString checks the schedule dump grammar is a parse fixed
// point: any text Parse accepts must re-print to a dump that parses to
// the byte-identical dump (so checked-in golden schedules and
// `rdminfo -plan` output are stable under a load/store round trip).
// Any schedule Parse accepts that BuildDAG also accepts must further
// yield a well-formed, deterministic DAG whose dump survives its own
// String/ParseDAG round trip.
func FuzzPlanString(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if d, err := ParseDAG(text); err == nil {
			// Any DAG dump ParseDAG accepts must be a String fixed point:
			// its edges were already verified against the schedule.
			p1 := d.String()
			d2, err := ParseDAG(p1)
			if err != nil {
				t.Fatalf("own DAG dump rejected: %v\n%s", err, p1)
			}
			if p2 := d2.String(); p2 != p1 {
				t.Fatalf("DAG dump not a fixed point:\n--- first\n%s--- second\n%s", p1, p2)
			}
		}
		s, err := Parse(text)
		if err != nil {
			return
		}
		d1 := s.String()
		s2, err := Parse(d1)
		if err != nil {
			t.Fatalf("own dump rejected: %v\n%s", err, d1)
		}
		if d2 := s2.String(); d2 != d1 {
			t.Fatalf("dump not a fixed point:\n--- first\n%s--- second\n%s", d1, d2)
		}
		dag, err := BuildDAG(s)
		if err != nil {
			return // not every parseable schedule is executable
		}
		for j := range dag.Nodes {
			prev := -1
			for _, m := range dag.Nodes[j].Deps {
				if m <= prev || m >= j {
					t.Fatalf("node %d: malformed deps %v", j, dag.Nodes[j].Deps)
				}
				prev = m
			}
		}
		dd1 := dag.String()
		if b := MustBuildDAG(s2).String(); b != dd1 {
			t.Fatalf("DAG not deterministic across reparse:\n--- first\n%s--- second\n%s", dd1, b)
		}
		dag2, err := ParseDAG(dd1)
		if err != nil {
			t.Fatalf("own DAG dump rejected: %v\n%s", err, dd1)
		}
		if dd2 := dag2.String(); dd2 != dd1 {
			t.Fatalf("DAG dump not a fixed point:\n--- first\n%s--- second\n%s", dd1, dd2)
		}
	})
}

// fuzzSeeds are FuzzPlanString's in-code seeds: a bare header, dense
// training schedules (naive and optimized, SAGE, reduced replication,
// three layers) and one DAG dump.
func fuzzSeeds() []string {
	return []string{
		"schedule p=1 ra=1 n=4 dims=3,2 config=0 sage=0 memoize=0 inputgrad=0 regs=0 weights=1\n",
		Compile(spec2(64, 0, 4, 4, true)).Optimize().String(),
		Compile(spec2(64, 15, 8, 2, false)).Optimize().String(),
		Compile(Spec{N: 7, Dims: []int{5, 4, 3, 2}, P: 2, RA: 2, SAGE: true, Memoize: true}).String(),
		Compile(spec2(48, 6, 8, 2, true)).Optimize().String(),
		Compile(Spec{N: 32, Dims: []int{8, 6, 4}, Config: spec2(32, 9, 4, 4, false).Config,
			P: 4, RA: 2, SAGE: true, Memoize: true, InputGrad: true}).Optimize().String(),
		MustBuildDAG(Compile(spec2(64, 10, 4, 4, true)).Optimize()).String(),
	}
}
