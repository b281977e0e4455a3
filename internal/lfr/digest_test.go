package lfr_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"tends/internal/datasets"
	"tends/internal/graph"
	"tends/internal/lfr"
)

// The generators' outputs are pinned bit for bit: every experiment, golden
// file and benchmark digest downstream is a function of these graphs, so a
// change to the edge store or the wiring loop that moved a single edge or
// RNG draw would show here first. Each digest is the SHA-256 of the sorted
// edge list, the LFR membership (when there is one) and the generator RNG's
// next Int63 (when the caller owns the RNG).
var generatorDigests = map[string]string{
	"lfr n=1e4 undirected":   "6119917f24acd4c2c4a9a1ba3f71bf2d8da65c932d096b164ca13bcba9797441",
	"lfr n=1e4 directed":     "be8dd33a29b5070008a704099b73817fb70beb0f2bf178eef6ec179c61f7ad6e",
	"lfr LFR1 seed 1":        "6f9822e17aeed473c4cf8168039b39295c5be69e646ca33a5a020a5830b42e73",
	"lfr LFR15 seed 1":       "b31fec403ab1f8af057fe509804bc70d26abd61263392b74737070767b822e95",
	"preferential n=2000 a3": "cbe6b8a3f3c39d4fa0600e9c607d4bab0eb425cf8380f933a2bc7ede3ac0a536",
	"netsci seed 1":          "b7f1f01fe68b7188d95bdbe04dec91b401939f48b808c8abdd3f43e23c842ae8",
}

func digestGraph(h hash.Hash, g *graph.Directed) {
	fmt.Fprintf(h, "n %d m %d\n", g.NumNodes(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d %d\n", e.From, e.To)
	}
}

func digestLFR(res *lfr.Result, rng *rand.Rand) string {
	h := sha256.New()
	digestGraph(h, res.Graph)
	fmt.Fprintf(h, "membership %v\n", res.Membership)
	fmt.Fprintf(h, "next %d\n", rng.Int63())
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorDigests(t *testing.T) {
	got := map[string]string{}
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		res, err := lfr.Generate(lfr.Params{N: 10000, AvgDegree: 10, DegreeExp: 2, Directed: directed}, rng)
		if err != nil {
			t.Fatal(err)
		}
		name := "lfr n=1e4 undirected"
		if directed {
			name = "lfr n=1e4 directed"
		}
		got[name] = digestLFR(res, rng)
	}
	for _, i := range []int{1, 15} {
		p, err := lfr.Benchmark(i)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		res, err := lfr.Generate(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		bench, err := lfr.GenerateBenchmark(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bench.Graph.Equal(res.Graph) {
			t.Fatalf("GenerateBenchmark(%d, 1) differs from Generate with its parameters", i)
		}
		got[fmt.Sprintf("lfr LFR%d seed 1", i)] = digestLFR(res, rng)
	}
	{
		rng := rand.New(rand.NewSource(1))
		g := graph.PreferentialAttachment(2000, 3, rng)
		h := sha256.New()
		digestGraph(h, g)
		fmt.Fprintf(h, "next %d\n", rng.Int63())
		got["preferential n=2000 a3"] = hex.EncodeToString(h.Sum(nil))
	}
	{
		g, err := datasets.NetSci(1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		digestGraph(h, g)
		got["netsci seed 1"] = hex.EncodeToString(h.Sum(nil))
	}
	for name, want := range generatorDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}
