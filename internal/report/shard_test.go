package report

import (
	"reflect"
	"sync"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
)

// shardInput is a corpus with its analyses, indexed by message.
type shardInput struct {
	corpus   *dataset.Corpus
	analyses []*crawlerbox.MessageAnalysis
}

// shardFixture analyzes a small corpus once and keeps its analyses so the
// property tests can rebuild shards any way they like.
var shardFixture struct {
	once sync.Once
	in   shardInput
	err  error
}

func shardRun(t *testing.T) shardInput {
	t.Helper()
	shardFixture.once.Do(func() {
		shardFixture.in.corpus, shardFixture.in.analyses, shardFixture.err =
			collectAnalyses(dataset.Config{Seed: 42, Scale: 0.1}, WithWorkers(1))
	})
	if shardFixture.err != nil {
		t.Fatal(shardFixture.err)
	}
	return shardFixture.in
}

// foldShard builds a fresh shard from the messages/analyses whose index
// satisfies pick. Message folds and analysis folds travel together, the way
// Analyze's producer and workers split them.
func foldShard(r shardInput, pick func(i int) bool) *CensusShard {
	s := NewCensusShard()
	for i := range r.corpus.Messages {
		if pick(i) {
			s.AddMessage(&r.corpus.Messages[i])
		}
	}
	for i, ma := range r.analyses {
		if pick(i) {
			s.AddAnalysis(i, ma)
		}
	}
	return s
}

// TestMergeIdentity pins the identity element: merging an empty shard in —
// on either side — leaves the finalized census unchanged.
func TestMergeIdentity(t *testing.T) {
	r := shardRun(t)
	all := func(int) bool { return true }
	want := foldShard(r, all).finalize()

	left := NewCensusShard()
	left.Merge(foldShard(r, all))
	if !reflect.DeepEqual(left.finalize(), want) {
		t.Error("empty.Merge(s) diverges from s")
	}

	right := foldShard(r, all)
	right.Merge(NewCensusShard())
	if !reflect.DeepEqual(right.finalize(), want) {
		t.Error("s.Merge(empty) diverges from s")
	}
}

// TestMergeCommutative pins commutativity: partitioned shards merged in any
// order finalize to the same census as the single-shard fold.
func TestMergeCommutative(t *testing.T) {
	r := shardRun(t)
	want := foldShard(r, func(int) bool { return true }).finalize()

	parts := func() []*CensusShard {
		out := make([]*CensusShard, 3)
		for k := range out {
			k := k
			out[k] = foldShard(r, func(i int) bool { return i%3 == k })
		}
		return out
	}

	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	for _, order := range orders {
		shards := parts()
		acc := NewCensusShard()
		for _, k := range order {
			acc.Merge(shards[k])
		}
		if !reflect.DeepEqual(acc.finalize(), want) {
			t.Errorf("merge order %v diverges from the single-shard fold", order)
		}
	}
}

// TestMergeAssociative pins associativity: (A∪B)∪C and A∪(B∪C) finalize
// identically.
func TestMergeAssociative(t *testing.T) {
	r := shardRun(t)
	part := func(k int) *CensusShard {
		return foldShard(r, func(i int) bool { return i%3 == k })
	}

	leftAssoc := NewCensusShard()
	ab := part(0)
	ab.Merge(part(1))
	leftAssoc.Merge(ab)
	leftAssoc.Merge(part(2))

	rightAssoc := NewCensusShard()
	bc := part(1)
	bc.Merge(part(2))
	rightAssoc.Merge(part(0))
	rightAssoc.Merge(bc)

	if !reflect.DeepEqual(leftAssoc.finalize(), rightAssoc.finalize()) {
		t.Error("(A∪B)∪C diverges from A∪(B∪C)")
	}
}
