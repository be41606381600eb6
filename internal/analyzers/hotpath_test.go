package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// poolFixture is the minimal stand-in for qap/internal/exec: the
// poolleak analyzer matches GetBatch/PutBatch by function name and
// package name, so fixture modules can exercise it without importing
// the real module.
const poolFixture = `package exec

type Tuple struct{ V int }
type Batch []Tuple

func GetBatch() Batch     { return nil }
func PutBatch(b Batch)    {}
func PushAll(dst *Batch, b Batch) {}

type ColBatch struct{ Len int }

func GetColBatch() *ColBatch   { return new(ColBatch) }
func PutColBatch(cb *ColBatch) {}
`

func poolFiles(body string) map[string]string {
	return map[string]string{
		"exec/pool.go": poolFixture,
		"lib/lib.go":   "package lib\n\nimport \"vettest/exec\"\n\n" + body,
	}
}

func TestPoolleakFlagsEarlyReturn(t *testing.T) {
	fs := findingsFor(t, poolFiles(`func leaky(fail bool) {
	b := exec.GetBatch()
	if fail {
		return
	}
	exec.PutBatch(b)
}
`))
	pl := byAnalyzer(fs, "poolleak")
	if len(pl) != 1 {
		t.Fatalf("want 1 poolleak finding, got %d: %v", len(pl), pl)
	}
	if pl[0].Pos.Line != 6 { // the GetBatch call, not the return
		t.Errorf("finding at line %d, want 6 (the acquire site)", pl[0].Pos.Line)
	}
	if !strings.Contains(pl[0].Message, "no PutBatch") {
		t.Errorf("unexpected message: %s", pl[0].Message)
	}
}

func TestPoolleakFlagsFallOffEndAndOverwrite(t *testing.T) {
	fs := findingsFor(t, poolFiles(`func dropped() {
	b := exec.GetBatch()
	b = append(b, exec.Tuple{V: 1})
	_ = len(b)
}

func overwritten() {
	b := exec.GetBatch()
	b = exec.GetBatch()
	exec.PutBatch(b)
}
`))
	pl := byAnalyzer(fs, "poolleak")
	if len(pl) != 2 {
		t.Fatalf("want 2 poolleak findings (fall-off leak + overwrite), got %d: %v", len(pl), pl)
	}
	if !strings.Contains(pl[0].Message, "may leak") {
		t.Errorf("first finding should be the fall-off leak: %s", pl[0].Message)
	}
	if !strings.Contains(pl[1].Message, "overwritten") {
		t.Errorf("second finding should be the overwrite: %s", pl[1].Message)
	}
}

// TestPoolleakTracksColumnBatches: the pooled column batch follows the
// same contract — an early return that skips PutColBatch is a leak, a
// put on the error path plus a transfer by return or into a struct is
// not.
func TestPoolleakTracksColumnBatches(t *testing.T) {
	fs := findingsFor(t, poolFiles(`type group struct{ cols *exec.ColBatch }

func leaky(fail bool) {
	cb := exec.GetColBatch()
	if fail {
		return
	}
	exec.PutColBatch(cb)
}

func decode(fail bool) *exec.ColBatch {
	cb := exec.GetColBatch()
	if fail {
		exec.PutColBatch(cb)
		return nil
	}
	return cb
}

func grouped(g *group) {
	cb := exec.GetColBatch()
	g.cols = cb
}
`))
	pl := byAnalyzer(fs, "poolleak")
	if len(pl) != 1 {
		t.Fatalf("want 1 poolleak finding (the early return), got %d: %v", len(pl), pl)
	}
	if pl[0].Pos.Line != 8 || !strings.Contains(pl[0].Message, "no PutColBatch") {
		t.Errorf("unexpected finding: line %d: %s", pl[0].Pos.Line, pl[0].Message)
	}
}

// TestPoolleakTracksLinkBatches follows a link item's batch from the
// GetColBatch that opens it to its release, in the shapes the engine
// uses: the capture's copy moves into the item it records, the decoder
// puts its batch back when the blob is bad and hands it to the item
// otherwise, and the replay puts the batch an item handed it once the
// edge has seen it. The seeded leak is a capture that acquires before it
// looks at the batch and drops the copy of an empty one.
func TestPoolleakTracksLinkBatches(t *testing.T) {
	fs := findingsFor(t, poolFiles(`type item struct{ cols *exec.ColBatch }

type island struct{ outbox []item }

func copyInto(dst, src *exec.ColBatch) { dst.Len = src.Len }

func capture(isl *island, cb *exec.ColBatch) {
	if cb.Len == 0 {
		return
	}
	cp := exec.GetColBatch()
	copyInto(cp, cb)
	isl.outbox = append(isl.outbox, item{cols: cp})
}

func leakyCapture(isl *island, cb *exec.ColBatch) {
	cp := exec.GetColBatch()
	if cb.Len == 0 {
		return
	}
	copyInto(cp, cb)
	isl.outbox = append(isl.outbox, item{cols: cp})
}

func decodeItem(it *item, bad bool) bool {
	cb := exec.GetColBatch()
	if bad {
		exec.PutColBatch(cb)
		return false
	}
	it.cols = cb
	return true
}

func replay(items []item, push func(*exec.ColBatch)) {
	for i := range items {
		it := &items[i]
		push(it.cols)
		exec.PutColBatch(it.cols)
		it.cols = nil
	}
}
`))
	pl := byAnalyzer(fs, "poolleak")
	if len(pl) != 1 {
		t.Fatalf("want 1 poolleak finding (the capture that acquires too early), got %d: %v", len(pl), pl)
	}
	if pl[0].Pos.Line != 21 || !strings.Contains(pl[0].Message, "no PutColBatch") {
		t.Errorf("unexpected finding: line %d: %s", pl[0].Pos.Line, pl[0].Message)
	}
}

// TestPoolleakAcceptsOwnershipIdioms pins the contract's legal shapes:
// balanced put, deferred put (direct and in a closure), transfer by
// return, transfer into a struct or composite literal, self-append
// growth, neutral call arguments (consumers copy, producers still
// put), and release on every branch of an if/else.
func TestPoolleakAcceptsOwnershipIdioms(t *testing.T) {
	fs := findingsFor(t, poolFiles(`type box struct{ b exec.Batch }

func balanced() {
	b := exec.GetBatch()
	b = append(b, exec.Tuple{V: 1})
	exec.PushAll(nil, b)
	exec.PutBatch(b)
}

func deferred(fail bool) {
	b := exec.GetBatch()
	defer exec.PutBatch(b)
	if fail {
		return
	}
	b = append(b, exec.Tuple{})
}

func deferredClosure() {
	b := exec.GetBatch()
	defer func() { exec.PutBatch(b) }()
	b = append(b, exec.Tuple{})
}

func transfersToCaller() exec.Batch {
	b := exec.GetBatch()
	return b
}

func storedInStruct(x *box) {
	b := exec.GetBatch()
	x.b = b
}

func storedInLiteral() *box {
	b := exec.GetBatch()
	return &box{b: b}
}

func branches(fail bool) {
	b := exec.GetBatch()
	if fail {
		exec.PutBatch(b)
		return
	}
	exec.PutBatch(b)
}

func loops(rounds int) {
	for i := 0; i < rounds; i++ {
		b := exec.GetBatch()
		b = append(b, exec.Tuple{V: i})
		exec.PutBatch(b)
	}
}
`))
	if pl := byAnalyzer(fs, "poolleak"); len(pl) != 0 {
		t.Fatalf("every function follows the ownership contract; got %v", pl)
	}
}

func TestHotallocFlagsOnlyHotFunctions(t *testing.T) {
	fs := findingsFor(t, map[string]string{"lib/lib.go": `package lib

type point struct{ X, Y int }

// hot is the per-tuple path.
//
//qap:hot
func hot(n int) int {
	s := make([]int, n)
	p := &point{X: 1}
	m := map[int]int{}
	f := func() int { return 1 }
	v := point{X: 3}
	q := new(point)
	return len(s) + p.X + len(m) + f() + v.X + q.Y
}

func cold(n int) int {
	s := make([]int, n)
	p := &point{X: 1}
	return len(s) + p.X
}
`})
	ha := byAnalyzer(fs, "hotalloc")
	if len(ha) != 5 { // make, &point{}, map literal, closure, new — not the value literal
		t.Fatalf("want 5 hotalloc findings in hot only, got %d: %v", len(ha), ha)
	}
	for _, f := range ha {
		if !strings.Contains(f.Message, "hot function hot") {
			t.Errorf("finding outside the hot function: %s", f)
		}
	}
}

func TestHotallocAllowsAnnotatedSites(t *testing.T) {
	fs := findingsFor(t, map[string]string{"lib/lib.go": `package lib

//qap:hot
func hot(n int) []int {
	s := make([]int, 0, n) //qap:allow hotalloc -- amortized: grown once per run
	return s
}
`})
	if ha := byAnalyzer(fs, "hotalloc"); len(ha) != 0 {
		t.Fatalf("annotated site should be suppressed; got %v", ha)
	}
	if ss := byAnalyzer(fs, "stalesuppress"); len(ss) != 0 {
		t.Fatalf("the allow is live, not stale; got %v", ss)
	}
}

func TestStalesuppressFlagsDeadAndUnknownAllows(t *testing.T) {
	fs := findingsFor(t, map[string]string{"lib/lib.go": `package lib

import "time"

func f() int64 {
	n := time.Now().Unix() //qap:allow walltime -- live: suppresses this read
	x := 1                 //qap:allow walltime -- dead: nothing to suppress
	y := 2                 //qap:allow wibble -- unknown analyzer name
	return n + int64(x+y)
}
`})
	if wall := byAnalyzer(fs, "walltime"); len(wall) != 0 {
		t.Fatalf("live allow should still suppress; got %v", wall)
	}
	ss := byAnalyzer(fs, "stalesuppress")
	if len(ss) != 2 {
		t.Fatalf("want 2 stalesuppress findings (dead + unknown), got %d: %v", len(ss), ss)
	}
	if ss[0].Pos.Line != 7 || !strings.Contains(ss[0].Message, "suppresses nothing") {
		t.Errorf("want dead-allow finding at line 7, got %s", ss[0])
	}
	if ss[1].Pos.Line != 8 || !strings.Contains(ss[1].Message, "unknown analyzer") {
		t.Errorf("want unknown-name finding at line 8, got %s", ss[1])
	}
}

// TestSeededPoolleakFails plants a leaky GetBatch user in the cluster
// package of a repo copy and asserts the vet run catches it — the
// acceptance check that poolleak actually guards the engine.
func TestSeededPoolleakFails(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	src := repoRoot(t)
	dst := t.TempDir()
	if err := copyGoTree(src, dst); err != nil {
		t.Fatal(err)
	}
	seeded := filepath.Join(dst, "internal", "cluster", "zz_seeded.go")
	if err := os.WriteFile(seeded, []byte(`package cluster

import "qap/internal/exec"

func seededLeak(fail bool) {
	b := exec.GetBatch()
	if fail {
		return
	}
	exec.PutBatch(b)
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dst)
	if err != nil {
		t.Fatal(err)
	}
	fs := RunAll(pkgs, All)
	var hit bool
	for _, f := range fs {
		if f.Analyzer == "poolleak" && strings.HasSuffix(f.Pos.Filename, "zz_seeded.go") {
			hit = true
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !hit {
		t.Error("seeded pool leak was not flagged")
	}
}
