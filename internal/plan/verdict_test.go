package plan

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnrdm/internal/costmodel"
)

var update = flag.Bool("update", false, "rewrite golden files")

// verdictMnemonics is the dump grammar's op vocabulary, written out
// independently of the parser so the golden does not move with it.
var verdictMnemonics = []string{
	"input", "redist", "redist.sp", "spmm.fwd", "spmm.bwd", "spmm.abc",
	"gemm", "gemm.t", "gradgemm", "allreduce.grad", "relu", "relugrad",
	"add", "memoize", "reuse", "loss", "memwrite", "update",
}

// sparseABCInference returns a sparse schedule (live= header,
// redist.sp), its ABC rewrite (spmm.abc) and an inference schedule.
func sparseABCInference() []*Schedule {
	sparse := Compile(Spec{
		N: 64, Dims: []int{16, 8}, Config: costmodel.ConfigFromID(1, 1),
		P: 4, RA: 4, Memoize: true, InputGrad: true, Live: 4, SparseSeed: 3,
	}).Optimize()
	return []*Schedule{sparse, sparse.ABC(), CompileInference(Spec{
		N: 32, Dims: []int{8, 6, 4}, Config: costmodel.ConfigFromID(9, 2),
		P: 4, RA: 2, SAGE: true,
	}).Optimize()}
}

// verdictCorpus is the golden's input: the FuzzPlanString seeds and
// sparseABCInference's schedules.
func verdictCorpus() []string {
	corpus := fuzzSeeds()
	for _, s := range sparseABCInference() {
		corpus = append(corpus, s.String())
	}
	return corpus
}

// verdictLayouts are the layouts a layout token is replaced with.
var verdictLayouts = []string{"H", "V", "R", "G2", "G4"}

// opMutants returns the mutants of one whitespace-split op line: each
// token dropped, each token duplicated, each adjacent pair swapped, the
// mnemonic replaced by every other mnemonic, and each layout (alone or
// either side of a from->to pair) replaced by every other layout.
func opMutants(tok []string) (names []string, lines [][]string) {
	add := func(name string, t []string) {
		names = append(names, name)
		lines = append(lines, t)
	}
	for i := range tok {
		add("drop", append(append([]string(nil), tok[:i]...), tok[i+1:]...))
	}
	for i := range tok {
		add("dup", append(append([]string(nil), tok[:i+1]...), tok[i:]...))
	}
	for i := 0; i+1 < len(tok); i++ {
		t := append([]string(nil), tok...)
		t[i], t[i+1] = t[i+1], t[i]
		add("swap", t)
	}
	mn := 1
	if len(tok) > 2 && tok[2] == "=" {
		mn = 3
	}
	for _, m := range verdictMnemonics {
		if m != tok[mn] {
			t := append([]string(nil), tok...)
			t[mn] = m
			add("mn", t)
		}
	}
	for i, tk := range tok {
		sides := strings.Split(tk, "->")
		if len(sides) > 2 || !isLayoutToken(sides[0]) {
			continue
		}
		for j := range sides {
			for _, l := range verdictLayouts {
				if l != sides[j] {
					t := append([]string(nil), tok...)
					alt := append([]string(nil), sides...)
					alt[j] = l
					t[i] = strings.Join(alt, "->")
					add("lay", t)
				}
			}
		}
	}
	return names, lines
}

func isLayoutToken(t string) bool {
	if t == "H" || t == "V" || t == "R" {
		return true
	}
	return len(t) > 1 && t[0] == 'G' && strings.Trim(t[1:], "0123456789") == ""
}

// verdict classifies one text: '.' rejected, 'x' accepted but refused
// by BuildDAG, 'D' accepted with a DAG (whose dump hash is returned).
// DAG dumps go through ParseDAG, schedules through Parse and BuildDAG.
func verdict(text string) (byte, string) {
	hash := func(s string) string {
		h := fnv.New64a()
		h.Write([]byte(s))
		return fmt.Sprintf("%016x", h.Sum64())
	}
	if strings.Contains(text, "\nedges\n") {
		d, err := ParseDAG(text)
		if err != nil {
			return '.', ""
		}
		return 'D', hash(d.String())
	}
	s, err := Parse(text)
	if err != nil {
		return '.', ""
	}
	d, err := BuildDAG(s)
	if err != nil {
		return 'x', ""
	}
	return 'D', hash(d.String())
}

// TestParseVerdictGolden pins which single-token mutations of every op
// line in the corpus Parse accepts, and the DAG each accepted one
// builds. One golden line per op line: the verdict of each mutant in
// order, grouped by mutation, then the DAG hashes of the accepted ones.
func TestParseVerdictGolden(t *testing.T) {
	var b strings.Builder
	for ci, text := range verdictCorpus() {
		lines := strings.Split(text, "\n")
		for li, line := range lines {
			if !strings.HasPrefix(line, "  s") {
				continue
			}
			names, muts := opMutants(strings.Fields(line))
			fmt.Fprintf(&b, "c%d l%d", ci, li)
			var hashes []string
			for i, m := range muts {
				if i == 0 || names[i] != names[i-1] {
					fmt.Fprintf(&b, " %s=", names[i])
				}
				mutated := append([]string(nil), lines...)
				mutated[li] = "  " + strings.Join(m, " ")
				v, h := verdict(strings.Join(mutated, "\n"))
				b.WriteByte(v)
				if h != "" {
					hashes = append(hashes, h)
				}
			}
			for _, h := range hashes {
				fmt.Fprintf(&b, " %s", h)
			}
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "parse_verdict.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("verdicts differ from %s; rerun with -update if intended\n--- got\n%s--- want\n%s", path, got, want)
	}
}
