package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
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
	_, err := w.Write(g.appendEdgeList(nil))
	return err
}

// EdgeListString returns the edge-list encoding as a string.
func (g *Graph) EdgeListString() string {
	return string(g.appendEdgeList(nil))
}

// appendEdgeList appends the edge-list encoding to dst.
func (g *Graph) appendEdgeList(dst []byte) []byte {
	dst = append(dst, "n "...)
	dst = strconv.AppendInt(dst, int64(g.n), 10)
	dst = append(dst, '\n')
	for from := 0; from < g.n; from++ {
		for _, to := range g.out[from] {
			dst = strconv.AppendInt(dst, int64(from), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(to), 10)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// Encode returns the graph's canonical encoding: a compact single-line
// string determined entirely by the node and edge sets — "g1:<n>" followed
// by each node's sorted out-neighbor list (";0>2,5;1>0;…", edge-free nodes
// omitted). Two graphs encode equally iff Graph.Equal holds, independent of
// construction order, so the encoding is a sound identity key for caches of
// graph-determined results (the condition package's verdict cache keys on
// it; Theorem 1's verdict is a pure function of (G, f, threshold)). Decode
// is its inverse.
//
// The "g1" prefix versions the format: any future change to the encoding
// must bump it so stale persisted keys miss instead of aliasing.
func (g *Graph) Encode() string {
	var sb strings.Builder
	sb.Grow(len(encodingPrefix) + 4*(g.n+g.edges))
	var num [20]byte
	sb.WriteString(encodingPrefix)
	sb.Write(strconv.AppendInt(num[:0], int64(g.n), 10))
	for i := 0; i < g.n; i++ {
		if len(g.out[i]) == 0 {
			continue
		}
		sb.WriteByte(';')
		sb.Write(strconv.AppendInt(num[:0], int64(i), 10))
		sb.WriteByte('>')
		for k, to := range g.out[i] {
			if k > 0 {
				sb.WriteByte(',')
			}
			sb.Write(strconv.AppendInt(num[:0], int64(to), 10))
		}
	}
	return sb.String()
}

// encodingPrefix opens every canonical encoding.
const encodingPrefix = "g1:"

// EncodedOrder returns the order canonical encoding s declares, reading
// nothing past it. Decode allocates for that order, so a caller with a bound
// on the order checks it here first.
func EncodedOrder(s string) (int, error) {
	n, _, err := decodeOrder(s)
	return n, err
}

// decodeOrder reads the prefix and the order off s and returns the order and
// the position after it.
func decodeOrder(s string) (int, int, error) {
	rest, ok := strings.CutPrefix(s, encodingPrefix)
	if !ok {
		return 0, 0, fmt.Errorf("graph: encoding lacks the %q prefix", encodingPrefix)
	}
	n, k := canonicalInt(rest)
	if n < 1 {
		return 0, 0, decodeError(len(encodingPrefix), "want the order, a decimal ≥ 1 without leading zeros")
	}
	return n, len(encodingPrefix) + k, nil
}

// Decode is Encode's inverse: it rebuilds the graph canonical encoding s
// names, and refuses any other string — sources and targets must ascend,
// lie in [0, n), differ from each other, and be written as Encode writes
// them — so every graph it returns encodes back to s. It builds the graph
// directly, without a Builder.
func Decode(s string) (*Graph, error) {
	n, pos, err := decodeOrder(s)
	if err != nil {
		return nil, err
	}
	// Every target is preceded by a '>' or a ',', so this bounds the edges
	// by the input's length, not by the order it declares.
	targets := make([]int, 0, strings.Count(s[pos:], ">")+strings.Count(s[pos:], ","))
	out := make([][]int, n)
	for from := -1; pos < len(s); {
		if s[pos] != ';' {
			return nil, decodeError(pos, "want ';'")
		}
		pos++
		v, k := canonicalInt(s[pos:])
		if k == 0 || v <= from || v >= n {
			return nil, decodeError(pos, "want a source above the last one and below the order")
		}
		from, pos = v, pos+k
		start := len(targets)
		for sep := byte('>'); pos < len(s) && s[pos] == sep; sep = ',' {
			pos++
			to, k := canonicalInt(s[pos:])
			if k == 0 || to >= n || to == from || len(targets) > start && to <= targets[len(targets)-1] {
				return nil, decodeError(pos, "want a target above the last one, below the order and not the source")
			}
			targets = append(targets, to)
			pos += k
		}
		if len(targets) == start {
			return nil, decodeError(pos, "want '>' and the source's targets")
		}
		out[from] = targets[start:len(targets):len(targets)]
	}
	return newGraph(n, out), nil
}

// canonicalInt reads a non-negative decimal, written as strconv.Itoa writes
// it, off the front of s and returns it and its length; the length is 0 when
// s does not start with one that fits an int.
func canonicalInt(s string) (v, k int) {
	for k < len(s) && '0' <= s[k] && s[k] <= '9' {
		d := int(s[k] - '0')
		if k > 0 && v == 0 || v > (math.MaxInt-d)/10 {
			return 0, 0
		}
		v, k = 10*v+d, k+1
	}
	return v, k
}

func decodeError(pos int, want string) error {
	return fmt.Errorf("graph: non-canonical encoding at byte %d: %s", pos, want)
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
