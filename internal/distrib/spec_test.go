package distrib

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"iabc/internal/condition"
	"iabc/internal/graph"
	"iabc/internal/topology"
)

// scanPayload marshals a scan spec body.
func scanPayload(t testing.TB, spec scanSpec) []byte {
	t.Helper()
	payload, err := json.Marshal(jobSpec{Kind: "scan", Scan: &spec})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestScanSpecShipsTheCoordinatorsSpans: a scan spec carries the canonical
// encoding and the coordinator's generators, and the scanner a worker
// resolves from it has the spans of the scanner the coordinator built, on
// graphs with twin classes, with other symmetry, and with none.
func TestScanSpecShipsTheCoordinatorsSpans(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		f    int
		gens bool
	}{
		{testGraph(t, "core", 19, 6), 6, true},
		{testGraph(t, "core", 13, 4), 0, false},
		{testGraph(t, "chord", 16, 2), 2, true},
		{testGraph(t, "cycle", 63, 1), 1, false},
		{asymmetricDigraph(t, 25), 3, false},
	} {
		gens := condition.ScanGenerators(tc.g, tc.f)
		if (len(gens) > 0) != tc.gens {
			t.Fatalf("%v f=%d: %d generators to ship", tc.g, tc.f, len(gens))
		}
		payload, err := buildScanSpec(tc.g, tc.f, condition.SyncThreshold(tc.f), gens)
		if err != nil {
			t.Fatal(err)
		}
		var spec jobSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			t.Fatal(err)
		}
		if spec.Scan.Graph != tc.g.Encode() || len(spec.Scan.Gens) != len(gens)*tc.g.N() {
			t.Fatalf("%v f=%d: spec %q with %d generator bytes", tc.g, tc.f, spec.Scan.Graph, len(spec.Scan.Gens))
		}
		ws, err := resolveSpec(payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := condition.NewShardScanner(tc.g, tc.f, condition.SyncThreshold(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ws.scanner.Spans(), want.Spans()) {
			t.Fatalf("%v f=%d: the worker's spans differ from the coordinator's", tc.g, tc.f)
		}
	}
}

// TestPooledZooMatchesLocal: on the checker's orbit zoo — core networks and
// complete (bipartite) graphs, whose orbits are count vectors, chord
// networks, hypercubes, a torus, a wheel, a star, PFCN and a barbell, whose
// orbits are a table or mix twins with other symmetry, and random digraphs
// without symmetry — a pool of two workers leasing one span at a time, each
// building its scanner from the shipped generators, returns the local
// check's Result.
func TestPooledZooMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type zooCase struct {
		g *graph.Graph
		f int
	}
	var zoo []zooCase
	for n := 7; n <= 19; n += 3 {
		zoo = append(zoo, zooCase{mustGraph(topology.CoreNetwork(n, (n-1)/3)), min((n-1)/3, 4)})
	}
	zoo = append(zoo,
		zooCase{mustGraph(topology.Complete(9)), 3},
		zooCase{mustGraph(topology.CompleteBipartite(5, 6)), 3},
		zooCase{mustGraph(topology.Chord(12, 2)), 2},
		zooCase{mustGraph(topology.Chord(16, 2)), 2},
		zooCase{mustGraph(topology.Hypercube(4)), 2},
		zooCase{mustGraph(topology.Torus(4, 4)), 2},
		zooCase{mustGraph(topology.Wheel(9)), 3},
		zooCase{mustGraph(topology.Star(10)), 3},
		zooCase{mustGraph(topology.PFCN(14, 4)), 3},
		zooCase{mustGraph(topology.Barbell(5, 2)), 3},
	)
	for i := 0; i < 4; i++ {
		zoo = append(zoo, zooCase{mustGraph(topology.RandomDigraph(6+rng.Intn(6), 0.3+0.6*rng.Float64(), rng)), 1 + rng.Intn(2)})
	}
	for _, tc := range zoo {
		want, err := condition.CheckScan(context.Background(), tc.g, tc.f, condition.SyncThreshold(tc.f), condition.ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := pooledCheck(t, Options{ChunkSize: 1, ReportEvery: 1}, 2, tc.g, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if stats.JobsGranted == 0 {
			t.Fatalf("%v f=%d: no job granted", tc.g, tc.f)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v f=%d: pooled result %+v, local %+v", tc.g, tc.f, got, want)
		}
	}
}

// badScanSpecs are scan specs of core(13,4) at f = 4 that a worker must
// refuse, each with the words its error names.
func badScanSpecs(t testing.TB) []struct {
	name string
	spec scanSpec
	want string
} {
	g, err := topology.CoreNetwork(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.UndirectedRing(63)
	if err != nil {
		t.Fatal(err)
	}
	enc, n := g.Encode(), g.N()
	var packed []byte
	for _, perm := range condition.ScanGenerators(g, 4) {
		for _, w := range perm {
			packed = append(packed, byte(w))
		}
	}
	withGen := func(perm ...byte) []byte { return append(append([]byte(nil), packed...), perm...) }
	identity := make([]byte, n)
	for v := range identity {
		identity[v] = byte(v)
	}
	repeated := withGen(identity...)
	repeated[len(packed)+1] = 0 // nodes 0 and 1 both map to 0
	swapped := withGen(identity...)
	// Node 0 is in the core, node 12 outside it: their degrees differ.
	swapped[len(packed)], swapped[len(packed)+12] = 12, 0
	outOfRange := withGen(identity...)
	outOfRange[len(packed)+3] = byte(n)
	rotation := make([]byte, 63)
	for v := range rotation {
		rotation[v] = byte((v + 1) % 63)
	}
	base := scanSpec{Graph: enc, F: 4, Threshold: condition.SyncThreshold(4), Gens: packed}
	with := func(edit func(*scanSpec)) scanSpec {
		s := base
		edit(&s)
		return s
	}
	return []struct {
		name string
		spec scanSpec
		want string
	}{
		{"generator of the wrong length", with(func(s *scanSpec) { s.Gens = packed[:len(packed)-1] }), "not at most n−1 permutations"},
		{"more than n−1 generators", with(func(s *scanSpec) { s.Gens = make([]byte, n*n) }), "not at most n−1 permutations"},
		{"non-permutation", with(func(s *scanSpec) { s.Gens = repeated }), "is not a permutation"},
		{"image out of range", with(func(s *scanSpec) { s.Gens = outOfRange }), "is not a permutation"},
		{"permutation that is not an automorphism", with(func(s *scanSpec) { s.Gens = swapped }), "not an automorphism"},
		{"generators on 63 nodes", scanSpec{Graph: ring.Encode(), F: 1, Threshold: 2, Gens: rotation}, "on 63 nodes"},
		{"non-canonical encoding", with(func(s *scanSpec) { s.Graph = strings.Replace(enc, ";1>", ";01>", 1) }), "non-canonical encoding"},
		{"truncated encoding", with(func(s *scanSpec) { s.Graph = enc[:strings.LastIndexByte(enc, ',')+1] }), "non-canonical encoding"},
		{"edge-list graph", with(func(s *scanSpec) { s.Graph = g.EdgeListString() }), "g1:"},
		{"another graph", with(func(s *scanSpec) { s.Graph = enc[:strings.LastIndexByte(enc, ',')] }), "not an automorphism"},
	}
}

// TestResolveSpecRefusesBadScanSpec: a worker refuses a scan spec whose
// generators are not what a coordinator ships, or whose graph is not a
// canonical encoding, with an error naming the fault.
func TestResolveSpecRefusesBadScanSpec(t *testing.T) {
	for _, tc := range badScanSpecs(t) {
		if _, err := resolveSpec(scanPayload(t, tc.spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resolveSpec error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestWorkerRefusesBadScanSpec: a worker handed a bad scan spec for a
// granted job ends its connection with the spec's error and reports
// nothing, so no coordinator journals any of the lease.
func TestWorkerRefusesBadScanSpec(t *testing.T) {
	for _, tc := range badScanSpecs(t) {
		spec := scanPayload(t, tc.spec)
		wc, cc := net.Pipe()
		frames := make(chan byte, 8)
		go func() {
			defer cc.Close()
			defer close(frames)
			br := bufio.NewReader(cc)
			for _, reply := range [][]byte{
				appendHello(nil),
				appendJobGrant(nil, jobGrant{jobID: 1, specID: 1, kind: jobScan, lo: 0, hi: 10, to: 10}),
				appendSpec(nil, 1, spec),
			} {
				kind, _, _, err := readFrame(br, nil)
				if err != nil {
					return
				}
				frames <- kind
				if _, err := cc.Write(reply); err != nil {
					return
				}
			}
			if kind, _, _, err := readFrame(br, nil); err == nil {
				frames <- kind
			}
		}()
		err := work(context.Background(), func(context.Context) (net.Conn, error) { return wc, nil })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: worker returned %v, want an error containing %q", tc.name, err, tc.want)
		}
		var got []byte
		for kind := range frames {
			got = append(got, kind)
		}
		if want := []byte{kindHello, kindJobRequest, kindNeedSpec}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: worker sent frame kinds %v, want %v and nothing after the spec", tc.name, got, want)
		}
	}
}

// FuzzResolveSpec: resolveSpec never panics on an arbitrary payload, and a
// scan spec it resolves has the spans of a scanner built directly from the
// graph and generators the spec names. A scanner whose generators are not
// twin transpositions may keep its orbits in a table of one int32 per fault
// set, as the coordinator that shipped them did, so the fuzzer skips
// resolving scans of more than 2²⁰ fault sets.
func FuzzResolveSpec(f *testing.F) {
	for _, tc := range badScanSpecs(f) {
		f.Add(scanPayload(f, tc.spec))
	}
	for _, g := range []*graph.Graph{mustGraph(topology.CoreNetwork(13, 4)), mustGraph(topology.CompleteBipartite(3, 4)), mustGraph(topology.Chord(12, 2))} {
		payload, err := buildScanSpec(g, 3, condition.SyncThreshold(3), condition.ScanGenerators(g, 3))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"kind":"noop"}`))
	f.Add([]byte(`{"kind":"scan","scan":{"graph":"g1:200007;0>1","f":6,"threshold":7}}`))
	f.Add([]byte(`{"kind":"scan","scan":{"graph":"g1:3;0>1","f":1,"threshold":2,"gens":"AQAC"}}`))
	f.Add([]byte(`{"kind":"sweep","sweep":{}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var spec jobSpec
		if json.Unmarshal(payload, &spec) == nil && spec.Scan != nil {
			if n, err := graph.EncodedOrder(spec.Scan.Graph); err == nil && condition.NumFaultSets(n, spec.Scan.F) > 1<<20 {
				return
			}
		}
		ws, err := resolveSpec(payload)
		if err != nil || ws.kind != "scan" {
			return
		}
		g, err := graph.Decode(spec.Scan.Graph)
		if err != nil {
			t.Fatalf("resolved a spec whose graph does not decode: %v", err)
		}
		gens, err := unpackGenerators(g.N(), spec.Scan.Gens)
		if err != nil {
			t.Fatal(err)
		}
		want, err := condition.NewShardScannerWith(g, spec.Scan.F, spec.Scan.Threshold, gens)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ws.scanner.Spans(), want.Spans()) {
			t.Fatalf("spec %s: resolved spans differ from the scanner of its graph and generators", payload)
		}
	})
}

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}
