package inputformat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// An input spec names a job's input corpus in a machine-portable way, so a
// one-line repro replays against identical bytes on any host:
//
//	dir:<path>                               an existing directory, as-is
//	text:seed=S,files=N,bytes=B,shape=K      deterministic generated text
//	<scheme>:<params>                        any registered generator
//
// Generated corpora are materialized content-addressed under the system
// temp directory: the spec string hashes to the directory name, generation
// writes into a hidden temp dir and renames it into place, and an existing
// directory is reused. Every process on a host therefore agrees on the
// bytes for a spec — which is what lets distrun workers rebuild a workload
// job from repro flags and read the same input the coordinator planned.

// Shapes the text generator draws lines from. "mixed" deliberately includes
// empty lines, CRLF terminators, and a missing final newline — the record
// reader's edge cases.
var TextShapes = []string{"words", "short", "long", "crlf", "mixed"}

// TextSpec is the parsed form of a "text:" input spec.
type TextSpec struct {
	Seed  int64
	Files int
	Bytes int64 // approximate bytes per file
	Shape string
}

// String renders the canonical spec form.
func (t TextSpec) String() string {
	return fmt.Sprintf("text:seed=%d,files=%d,bytes=%d,shape=%s", t.Seed, t.Files, t.Bytes, t.Shape)
}

// Generator materializes one input scheme's corpus into dir (already
// created, initially empty). params is everything after "scheme:".
type Generator func(params string, dir string) error

var (
	genMu      sync.Mutex
	generators = map[string]Generator{"text": genText}
)

// RegisterScheme installs a corpus generator for spec prefix "scheme:".
// Higher layers use this to add generators without inverting the dependency
// (the apps package registers "hs:" for pre-sorted-input HS corpora).
func RegisterScheme(scheme string, gen Generator) {
	genMu.Lock()
	defer genMu.Unlock()
	if _, dup := generators[scheme]; dup {
		panic("inputformat: duplicate input scheme " + scheme)
	}
	generators[scheme] = gen
}

// Materialize resolves an input spec to a readable directory, generating
// (and caching) the corpus if the spec calls for one.
func Materialize(spec string) (string, error) {
	scheme, params, ok := strings.Cut(spec, ":")
	if !ok {
		return "", fmt.Errorf("inputformat: input spec %q has no scheme", spec)
	}
	if scheme == "dir" {
		st, err := os.Stat(params)
		if err != nil {
			return "", fmt.Errorf("inputformat: input spec %q: %w", spec, err)
		}
		if !st.IsDir() {
			return "", fmt.Errorf("inputformat: input spec %q: not a directory", spec)
		}
		return params, nil
	}
	genMu.Lock()
	gen := generators[scheme]
	genMu.Unlock()
	if gen == nil {
		return "", fmt.Errorf("inputformat: unknown input scheme %q", scheme)
	}
	sum := sha256.Sum256([]byte(spec))
	root := filepath.Join(os.TempDir(), "mrmicro-input")
	dir := filepath.Join(root, scheme+"-"+hex.EncodeToString(sum[:8]))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("inputformat: %w", err)
	}
	tmp, err := os.MkdirTemp(root, "."+scheme+"-gen-*")
	if err != nil {
		return "", fmt.Errorf("inputformat: %w", err)
	}
	if err := gen(params, tmp); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("inputformat: generating %q: %w", spec, err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		// A concurrent materialization of the same spec won the rename; its
		// contents are identical by construction.
		if _, statErr := os.Stat(dir); statErr == nil {
			return dir, nil
		}
		return "", fmt.Errorf("inputformat: %w", err)
	}
	return dir, nil
}

// ParseTextSpec parses the parameter list of a "text:" spec.
func ParseTextSpec(params string) (TextSpec, error) {
	t := TextSpec{Files: 1, Bytes: 4096, Shape: "words"}
	if err := ParseKVs(params, func(k, v string) error {
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			t.Seed = n
			return err
		case "files":
			n, err := strconv.Atoi(v)
			t.Files = n
			return err
		case "bytes":
			n, err := strconv.ParseInt(v, 10, 64)
			t.Bytes = n
			return err
		case "shape":
			t.Shape = v
			return nil
		default:
			return fmt.Errorf("unknown parameter %q", k)
		}
	}); err != nil {
		return TextSpec{}, err
	}
	if t.Files < 1 || t.Bytes < 1 {
		return TextSpec{}, fmt.Errorf("files and bytes must be positive")
	}
	ok := false
	for _, s := range TextShapes {
		ok = ok || s == t.Shape
	}
	if !ok {
		return TextSpec{}, fmt.Errorf("unknown shape %q", t.Shape)
	}
	return t, nil
}

// ParseKVs splits the "k=v,k=v" parameter list of an input spec and hands
// each pair to set; every scheme's parser is a switch inside set.
func ParseKVs(params string, set func(k, v string) error) error {
	for _, kv := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("inputformat: malformed parameter %q", kv)
		}
		if err := set(k, v); err != nil {
			return fmt.Errorf("inputformat: parameter %q: %w", kv, err)
		}
	}
	return nil
}

func genText(params, dir string) error {
	t, err := ParseTextSpec(params)
	if err != nil {
		return err
	}
	for i := 0; i < t.Files; i++ {
		data := GenTextFile(t.Seed, i, t.Bytes, t.Shape)
		name := filepath.Join(dir, fmt.Sprintf("input-%04d.txt", i))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// vocab is small on purpose: wordcount and inverted-index only get
// interesting when words repeat across lines and files.
var vocab = []string{
	"the", "map", "reduce", "shuffle", "sort", "merge", "spill", "split",
	"record", "key", "value", "block", "chunk", "hadoop", "network", "rdma",
	"infiniband", "ethernet", "latency", "bandwidth", "data", "node", "task",
	"job", "copy", "fetch", "disk", "memory", "buffer", "stream", "byte", "line",
}

// GenTextFile deterministically renders one corpus file of roughly `budget`
// bytes. (seed, file, budget, shape) fully determine the bytes.
func GenTextFile(seed int64, file int, budget int64, shape string) []byte {
	z := uint64(seed) + uint64(file+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4B9B1
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	rng := rand.New(rand.NewSource(int64(z ^ (z >> 31))))

	var b strings.Builder
	for int64(b.Len()) < budget {
		lineShape := shape
		if shape == "mixed" {
			lineShape = []string{"words", "short", "long", "crlf", "empty"}[rng.Intn(5)]
		}
		switch lineShape {
		case "empty":
			b.WriteByte('\n')
			continue
		case "short":
			writeWords(&b, rng, 1+rng.Intn(3))
			b.WriteByte('\n')
		case "long":
			writeWords(&b, rng, 30+rng.Intn(170))
			b.WriteByte('\n')
		case "crlf":
			writeWords(&b, rng, 4+rng.Intn(9))
			b.WriteString("\r\n")
		default: // words
			writeWords(&b, rng, 4+rng.Intn(9))
			b.WriteByte('\n')
		}
	}
	out := []byte(b.String())
	// Half of all "mixed" files end without a trailing newline, pinning the
	// final-record-at-EOF path.
	if shape == "mixed" && rng.Intn(2) == 0 && len(out) > 1 {
		out = out[:len(out)-1]
		if len(out) > 0 && out[len(out)-1] == '\r' {
			out = out[:len(out)-1]
		}
	}
	return out
}

func writeWords(b *strings.Builder, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(vocab[rng.Intn(len(vocab))])
	}
}
