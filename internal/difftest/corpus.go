package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// Repro is the JSON form of one differential case, as written to the
// persistent corpus under testdata/diffcorpus/ and printed by the shrinker.
// The graph is embedded whole — a repro replays without the generator, so
// corpus entries survive any future change to RandomGraph's distribution.
// Its nodes keep their ids, so every operand precedes its user, as in every
// dfg.Graph; a hand-edited entry that breaks this fails Validate on load.
type Repro struct {
	Version int `json:"version"`
	// Profile/Seed record where the generator found the case (informational;
	// replay uses the embedded graph).
	Profile string `json:"profile,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Note    string `json:"note,omitempty"`

	Cycles   int        `json:"cycles"`
	Lanes    int        `json:"lanes"`
	StimSeed int64      `json:"stim_seed"`
	Graph    reproGraph `json:"graph"`

	// Features the case exercised when it was recorded.
	Features []string `json:"features,omitempty"`
	// Divergence observed when the case was recorded, if any. Corpus
	// replays assert the divergence is gone (the bug was fixed), so a
	// committed entry with a non-nil divergence marks a known-open bug.
	Divergence *Divergence `json:"divergence,omitempty"`
}

// reproVersion is bumped on incompatible schema changes.
const reproVersion = 1

type reproGraph struct {
	Name    string      `json:"name,omitempty"`
	Nodes   []reproNode `json:"nodes"`
	Inputs  []reproPort `json:"inputs,omitempty"`
	Outputs []reproPort `json:"outputs,omitempty"`
	Regs    []reproReg  `json:"regs,omitempty"`
}

type reproNode struct {
	Kind  string  `json:"k"`
	Op    string  `json:"op,omitempty"`
	Args  []int32 `json:"a,omitempty"`
	Width int     `json:"w"`
	Val   uint64  `json:"v,omitempty"`
	Name  string  `json:"n,omitempty"`
}

type reproPort struct {
	Name string `json:"name"`
	Node int32  `json:"node"`
}

type reproReg struct {
	Node int32  `json:"node"`
	Next int32  `json:"next"`
	Init uint64 `json:"init"`
}

var opByName = func() map[string]wire.Op {
	m := make(map[string]wire.Op, int(wire.NumOps))
	for o := wire.Op(0); o < wire.NumOps; o++ {
		m[o.String()] = o
	}
	return m
}()

func encodeGraph(g *dfg.Graph) reproGraph {
	out := reproGraph{Name: g.Name}
	for id := range g.Nodes {
		n := &g.Nodes[id]
		rn := reproNode{Kind: n.Kind.String(), Width: int(n.Width), Name: n.Name}
		switch n.Kind {
		case dfg.KindOp:
			rn.Op = n.Op.String()
			for _, a := range n.Args {
				rn.Args = append(rn.Args, int32(a))
			}
		case dfg.KindConst:
			rn.Val = n.Val
		}
		out.Nodes = append(out.Nodes, rn)
	}
	for _, p := range g.Inputs {
		out.Inputs = append(out.Inputs, reproPort{Name: p.Name, Node: int32(p.Node)})
	}
	for _, p := range g.Outputs {
		out.Outputs = append(out.Outputs, reproPort{Name: p.Name, Node: int32(p.Node)})
	}
	for _, r := range g.Regs {
		out.Regs = append(out.Regs, reproReg{Node: int32(r.Node), Next: int32(r.Next), Init: r.Init})
	}
	return out
}

func decodeGraph(rg reproGraph) (*dfg.Graph, error) {
	g := &dfg.Graph{Name: rg.Name}
	for i, rn := range rg.Nodes {
		n := dfg.Node{Width: uint8(rn.Width), Name: rn.Name}
		switch rn.Kind {
		case "op":
			op, ok := opByName[rn.Op]
			if !ok {
				return nil, fmt.Errorf("difftest: node %d: unknown op %q", i, rn.Op)
			}
			n.Kind, n.Op = dfg.KindOp, op
			for _, a := range rn.Args {
				n.Args = append(n.Args, dfg.NodeID(a))
			}
		case "const":
			n.Kind, n.Val = dfg.KindConst, rn.Val
		case "input":
			n.Kind = dfg.KindInput
		case "reg":
			n.Kind = dfg.KindReg
		default:
			return nil, fmt.Errorf("difftest: node %d: unknown kind %q", i, rn.Kind)
		}
		g.Nodes = append(g.Nodes, n)
	}
	for _, p := range rg.Inputs {
		g.Inputs = append(g.Inputs, dfg.Port{Name: p.Name, Node: dfg.NodeID(p.Node)})
	}
	for _, p := range rg.Outputs {
		g.Outputs = append(g.Outputs, dfg.Port{Name: p.Name, Node: dfg.NodeID(p.Node)})
	}
	for _, r := range rg.Regs {
		g.Regs = append(g.Regs, dfg.Reg{Node: dfg.NodeID(r.Node), Next: dfg.NodeID(r.Next), Init: r.Init})
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("difftest: decoded graph invalid: %w", err)
	}
	return g, nil
}

// NewRepro captures a case (and optionally the divergence it produced).
func NewRepro(c *Case, d *Divergence) *Repro {
	return &Repro{
		Version:    reproVersion,
		Cycles:     c.Cycles,
		Lanes:      c.Lanes,
		StimSeed:   c.StimSeed,
		Graph:      encodeGraph(c.Graph),
		Divergence: d,
	}
}

// Case reconstructs the executable case from a repro.
func (r *Repro) Case() (*Case, error) {
	if r.Version != reproVersion {
		return nil, fmt.Errorf("difftest: repro version %d, want %d", r.Version, reproVersion)
	}
	if r.Cycles < 1 || r.Lanes < 1 {
		return nil, fmt.Errorf("difftest: repro cycles/lanes out of range: %d/%d", r.Cycles, r.Lanes)
	}
	g, err := decodeGraph(r.Graph)
	if err != nil {
		return nil, err
	}
	return &Case{Graph: g, Cycles: r.Cycles, Lanes: r.Lanes, StimSeed: r.StimSeed}, nil
}

// Hash content-addresses the executable substance of the repro — graph,
// cycles, lanes, stimulus seed — ignoring provenance metadata, so the same
// shrunk case never lands in the corpus twice.
func (r *Repro) Hash() string {
	blob, err := json.Marshal(struct {
		Cycles   int        `json:"cycles"`
		Lanes    int        `json:"lanes"`
		StimSeed int64      `json:"stim_seed"`
		Graph    reproGraph `json:"graph"`
	}{r.Cycles, r.Lanes, r.StimSeed, r.Graph})
	if err != nil {
		panic("difftest: repro marshal: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// WriteCorpus persists a repro to dir under its content hash. Writing an
// already-present entry is a no-op; existed reports which.
func WriteCorpus(dir string, r *Repro) (path string, existed bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", false, err
	}
	path = filepath.Join(dir, r.Hash()+".json")
	if _, err := os.Stat(path); err == nil {
		return path, true, nil
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", false, err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", false, err
	}
	return path, false, nil
}

// CorpusEntry pairs a loaded repro with its file path.
type CorpusEntry struct {
	Path  string
	Repro *Repro
}

// LoadCorpus reads every *.json repro in dir, sorted by filename. A
// missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []CorpusEntry
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		var r Repro
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("difftest: %s: %w", de.Name(), err)
		}
		entries = append(entries, CorpusEntry{Path: filepath.Join(dir, de.Name()), Repro: &r})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}
