package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// edgeListSeeds is FuzzParseEdgeList's seed corpus.
var edgeListSeeds = []string{
	"n 3\n0 1\n1 2\n",
	"n 1\n",
	"# comment\nn 4\n\n0 1\n",
	"n 0\n",
	"n -5\n",
	"0 1\n",
	"n 3\n0 0\n",
	"n 3\n0 99\n",
	"n two\n",
	strings.Repeat("n 2\n", 3),
}

// sscanfParseEdgeList is ParseEdgeList as it was written on fmt.Sscanf, the
// reference for the language the strconv parser accepts.
func sscanfParseEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if b == nil {
			var n int
			if _, err := fmt.Sscanf(text, "n %d", &n); err != nil {
				return nil, fmt.Errorf("graph: line %d: expected header \"n <order>\", got %q", line, text)
			}
			b = NewBuilder(n)
			continue
		}
		var from, to int
		if _, err := fmt.Sscanf(text, "%d %d", &from, &to); err != nil {
			return nil, fmt.Errorf("graph: line %d: expected \"<from> <to>\", got %q", line, text)
		}
		b.AddEdge(from, to)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty edge-list input")
	}
	return b.Build()
}

// TestParseEdgeListMatchesSscanf pins the edge-list language to the one
// fmt.Sscanf accepted, line by line and message by message, on the fuzz
// seeds and on the corners of its integer and space rules: trailing text,
// signs, leading zeros, tabs and other Unicode spaces are accepted, hex,
// commas, a bare sign, a missing separator and an overflowing int are not.
func TestParseEdgeListMatchesSscanf(t *testing.T) {
	lines := []string{
		"0 1 extra", "1 2#c", "+1 2", "01 2", "1\t2", "0x1 2", "1,2", "1", "1 ",
		"1  2", "1\v\f2", "1\r2", "1\u00a02", "1\u30002", "1\u200b2", "-1 2", "1 -2",
		"+ 2", "1 +", "+-1 2", "1-2", "1 2 3", "9223372036854775807 1",
		"9223372036854775808 1", "1 -9223372036854775809", "١ 2", "1 2\xff",
		"\xff 2", "00000000000000000000001 2",
	}
	headers := []string{"n 5 6", "n5", "n", "n ", "n\t7", "n +3", "n -2", "n 0x3", "N 3", "n 03", "nn 3", "n\u00a04"}
	inputs := slices.Clone(edgeListSeeds)
	for _, l := range lines {
		inputs = append(inputs, "n 3\n"+l+"\n")
	}
	for _, h := range headers {
		inputs = append(inputs, h+"\n0 1\n")
	}
	for _, in := range inputs {
		g, err := ParseEdgeListString(in)
		want, wantErr := sscanfParseEdgeList(strings.NewReader(in))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Errorf("%q: error %v, the Sscanf parser's %v", in, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Errorf("%q: error %q, the Sscanf parser's %q", in, err, wantErr)
		case err == nil && !g.Equal(want):
			t.Errorf("%q: parsed %s, the Sscanf parser %s", in, g.EdgeListString(), want.EdgeListString())
		}
	}
	for i, l := range lines[:7] {
		if _, err := ParseEdgeListString("n 3\n" + l + "\n"); (err == nil) != (i < 5) {
			t.Errorf("%q: error %v, want it to parse iff it is one of the first five", l, err)
		}
	}
}

// FuzzParseEdgeList hardens the interchange-format parser: any input must
// either produce a graph that round-trips exactly, or an error — never a
// panic or an inconsistent graph.
func FuzzParseEdgeList(f *testing.F) {
	for _, seed := range edgeListSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseEdgeListString(input)
		// The header reader refuses no input the parser takes, and reads
		// the order the parser builds.
		n, nerr := EdgeListOrder(input)
		if nerr != nil && err == nil {
			t.Fatalf("EdgeListOrder refused a parsable input: %v", nerr)
		}
		if err != nil {
			return
		}
		if n != g.N() {
			t.Fatalf("EdgeListOrder = %d, the parsed graph has %d nodes", n, g.N())
		}
		if g.N() < 1 {
			t.Fatalf("parser returned graph with %d nodes and no error", g.N())
		}
		// Round trip must be exact.
		back, err := ParseEdgeListString(g.EdgeListString())
		if err != nil {
			t.Fatalf("re-parse of emitted form failed: %v", err)
		}
		if !g.Equal(back) {
			t.Fatal("edge-list round trip changed the graph")
		}
		// Structural invariants.
		sumIn, sumOut := 0, 0
		for v := 0; v < g.N(); v++ {
			sumIn += g.InDegree(v)
			sumOut += g.OutDegree(v)
			if g.HasEdge(v, v) {
				t.Fatal("self-loop survived parsing")
			}
		}
		if sumIn != g.NumEdges() || sumOut != g.NumEdges() {
			t.Fatalf("degree sums %d/%d != m = %d", sumIn, sumOut, g.NumEdges())
		}
	})
}
