package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// The textual edge-list format is:
//
//	# optional comments
//	n <order>
//	<from> <to>
//	...
//
// One edge per line. It is the interchange format of cmd/iabc and the
// topologyaudit example.

// WriteEdgeList writes the graph in edge-list format.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.n); err != nil {
		return err
	}
	var err error
	g.ForEachEdge(func(from, to int) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", from, to)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// EdgeListString returns the edge-list encoding as a string.
func (g *Graph) EdgeListString() string {
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		// strings.Builder never errors; keep the invariant visible.
		panic(err)
	}
	return sb.String()
}

// Encode returns the graph's canonical encoding: a compact single-line
// string determined entirely by the node and edge sets — "g1:<n>;" followed
// by each node's sorted out-neighbor list ("0>2,5;1>0;…", edge-free nodes
// omitted). Two graphs encode equally iff Graph.Equal holds, independent of
// construction order, so the encoding is a sound identity key for caches of
// graph-determined results (the condition package's verdict cache keys on
// it; Theorem 1's verdict is a pure function of (G, f, threshold)).
//
// The "g1" prefix versions the format: any future change to the encoding
// must bump it so stale persisted keys miss instead of aliasing.
func (g *Graph) Encode() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "g1:%d", g.n)
	for i := 0; i < g.n; i++ {
		if len(g.out[i]) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";%d>", i)
		for k, to := range g.out[i] {
			if k > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", to)
		}
	}
	return sb.String()
}

// ParseEdgeList reads a graph in edge-list format.
func ParseEdgeList(r io.Reader) (*Graph, error) {
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
			n, err := parseHeader(line, text)
			if err != nil {
				return nil, err
			}
			b = NewBuilder(n)
			continue
		}
		var from, to int
		if !scanInts(text, &from, &to) {
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

// parseHeader reads the order off an edge list's header, its first line that
// is neither blank nor a comment.
func parseHeader(line int, text string) (int, error) {
	var n int
	if rest, ok := strings.CutPrefix(text, "n"); !ok || !startsWithSpace(rest) || !scanInts(rest, &n) {
		return 0, fmt.Errorf("graph: line %d: expected header \"n <order>\", got %q", line, text)
	}
	return n, nil
}

// EdgeListOrder returns the order the header of edge list s declares,
// reading nothing past the header. ParseEdgeList allocates for that order
// before it reads an edge, so a caller with a bound on the order checks it
// here first.
func EdgeListOrder(s string) (int, error) {
	for line := 1; s != ""; line++ {
		var text string
		text, s, _ = strings.Cut(s, "\n")
		if text = strings.TrimSpace(text); text != "" && !strings.HasPrefix(text, "#") {
			return parseHeader(line, text)
		}
	}
	return 0, fmt.Errorf("graph: empty edge-list input")
}

// scanInts reads len(vs) integers off the front of s and reports whether it
// found them, accepting what fmt.Sscanf's "%d %d …" does: each integer an
// optional sign and one or more decimal digits that fit an int, white space
// before it (at least one character of it between two integers), and
// anything after the last.
func scanInts(s string, vs ...*int) bool {
	for i, v := range vs {
		t := strings.TrimLeftFunc(s, unicode.IsSpace)
		if i > 0 && len(t) == len(s) {
			return false
		}
		k := 0
		if k < len(t) && (t[0] == '+' || t[0] == '-') {
			k++
		}
		for k < len(t) && '0' <= t[k] && t[k] <= '9' {
			k++
		}
		x, err := strconv.Atoi(t[:k]) // fails without a digit, as %d does
		if err != nil {
			return false
		}
		*v, s = x, t[k:]
	}
	return true
}

// startsWithSpace reports whether s begins with white space.
func startsWithSpace(s string) bool {
	return len(strings.TrimLeftFunc(s, unicode.IsSpace)) < len(s)
}

// ParseEdgeListString parses the edge-list format from a string.
func ParseEdgeListString(s string) (*Graph, error) {
	return ParseEdgeList(strings.NewReader(s))
}

// DOT renders the graph in Graphviz DOT syntax. Symmetric edge pairs are
// collapsed into a single undirected-looking edge (dir=both) to keep the
// drawings of Section 6 graphs readable.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	for i := 0; i < g.n; i++ {
		fmt.Fprintf(&sb, "  %d;\n", i)
	}
	g.ForEachEdge(func(from, to int) {
		if g.HasEdge(to, from) {
			if from < to {
				fmt.Fprintf(&sb, "  %d -> %d [dir=both];\n", from, to)
			}
			return
		}
		fmt.Fprintf(&sb, "  %d -> %d;\n", from, to)
	})
	sb.WriteString("}\n")
	return sb.String()
}
