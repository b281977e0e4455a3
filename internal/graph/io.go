package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxNodes bounds the node count accepted when parsing untrusted graph
// files, protecting against absurd allocations from corrupt headers.
const MaxNodes = 1 << 26

// The text format is deliberately simple and deterministic:
//
//	# optional comment lines
//	nodes <n>
//	<from> <to>
//	<from> <to>
//	...
//
// Edges are written sorted by (From, To), so serializing the same graph
// always produces identical bytes, which keeps golden-file tests stable.

// Write serializes g to w in the text format above.
func Write(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.From, e.To); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in the text format produced by Write. The edges are
// collected as parent lists and the graph is built once, by FromParents.
func Read(r io.Reader) (*Directed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var parents [][]int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if parents == nil {
			fields := strings.Fields(line)
			if len(fields) != 2 || fields[0] != "nodes" {
				return nil, fmt.Errorf("graph: line %d: expected header %q, got %q", lineNo, "nodes <n>", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node count: %v", lineNo, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative node count %d", lineNo, n)
			}
			if n > MaxNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d exceeds the %d limit", lineNo, n, MaxNodes)
			}
			parents = make([][]int, n)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: expected %q, got %q", lineNo, "<from> <to>", line)
		}
		from, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad from-node: %v", lineNo, err)
		}
		to, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad to-node: %v", lineNo, err)
		}
		if from < 0 || from >= len(parents) || to < 0 || to >= len(parents) {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of range [0,%d)", lineNo, from, to, len(parents))
		}
		parents[to] = append(parents[to], from)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if parents == nil {
		return nil, fmt.Errorf("graph: empty input, missing %q header", "nodes <n>")
	}
	return FromParents(len(parents), parents), nil
}
