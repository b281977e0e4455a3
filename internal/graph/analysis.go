package graph

import "sort"

// Analysis helpers: structural statistics used by the dataset stand-ins,
// the experiment diagnostics, and the CLI tools.

// WeaklyConnectedComponents returns the node sets of the weakly connected
// components (edge direction ignored), largest first; singleton nodes form
// their own components.
func (g *Directed) WeaklyConnectedComponents() [][]int {
	visited := make([]bool, g.n)
	var comps [][]int
	for start := 0; start < g.n; start++ {
		if visited[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		visited[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.out[v] {
				if !visited[u] {
					visited[u] = true
					stack = append(stack, u)
				}
			}
			for _, u := range g.in[v] {
				if !visited[u] {
					visited[u] = true
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Largest first, deterministic tie-break by smallest member.
	for i := range comps {
		sortInts(comps[i])
	}
	sortComponents(comps)
	return comps
}

// Reciprocity returns the fraction of directed edges whose reverse edge
// also exists; 0 for an empty graph.
func (g *Directed) Reciprocity() float64 {
	if g.numEdges == 0 {
		return 0
	}
	mutual := 0
	for u, children := range g.out {
		for _, v := range children {
			if g.HasEdge(v, u) {
				mutual++
			}
		}
	}
	return float64(mutual) / float64(g.numEdges)
}

// ClusteringCoefficient returns the global clustering coefficient of the
// underlying undirected graph: 3 × triangles / connected triples. 0 when no
// triples exist.
func (g *Directed) ClusteringCoefficient() float64 {
	// Undirected neighbor sets.
	neighbors := make([]map[int]struct{}, g.n)
	for v := 0; v < g.n; v++ {
		set := make(map[int]struct{})
		for _, u := range g.out[v] {
			set[u] = struct{}{}
		}
		for _, u := range g.in[v] {
			set[u] = struct{}{}
		}
		neighbors[v] = set
	}
	closedTriples := 0 // ordered triples with both legs and the closing edge
	triples := 0       // ordered connected triples centered at v
	for v := 0; v < g.n; v++ {
		nb := make([]int, 0, len(neighbors[v]))
		for u := range neighbors[v] {
			nb = append(nb, u)
		}
		d := len(nb)
		triples += d * (d - 1)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if i == j {
					continue
				}
				if _, ok := neighbors[nb[i]][nb[j]]; ok {
					closedTriples++
				}
			}
		}
	}
	if triples == 0 {
		return 0
	}
	return float64(closedTriples) / float64(triples)
}

func sortInts(s []int) { sort.Ints(s) }

func sortComponents(comps [][]int) {
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
}
