package figures

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"mrmicro/internal/microbench"
	"mrmicro/internal/netsim"
	"mrmicro/internal/simcache"
)

// renderAll captures everything a figure emits: the terminal rendering plus
// each table's CSV (CSV prints full float precision, so it catches drift the
// rounded rendering would hide).
func renderAll(t *testing.T, f Figure, o Options) string {
	t.Helper()
	out, err := f.Generate(o)
	if err != nil {
		t.Fatalf("%s: %v", f.ID, err)
	}
	s := out.Render()
	for _, tb := range out.Tables {
		s += tb.CSV()
	}
	for _, tl := range out.Timelines {
		s += tl.CSV()
	}
	return s
}

// TestFigureDeterminismAcrossWorkers runs every figure twice — sequentially
// and on a concurrent worker pool — and requires byte-identical output. This
// is the contract that makes -workers safe to default on: parallelism must
// never leak into results.
func TestFigureDeterminismAcrossWorkers(t *testing.T) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		parallel = 2 // always exercise the pool path, even on one CPU
	}
	for _, f := range All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			seq := renderAll(t, f, Options{Quick: true, Workers: 1})
			par := renderAll(t, f, Options{Quick: true, Workers: parallel})
			if seq != par {
				t.Errorf("workers=1 and workers=%d outputs differ:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					parallel, seq, parallel, par)
			}
		})
	}
	// fig2b's sweep is four matrices shared by three networks each (MR-RAND,
	// so each is really drawn): more workers than distinct matrices makes
	// points wait on one another's build.
	t.Run("fig2b/workers=8", func(t *testing.T) {
		f, _ := ByID("fig2b")
		if seq, par := renderAll(t, f, Options{Quick: true, Workers: 1}), renderAll(t, f, Options{Quick: true, Workers: 8}); seq != par {
			t.Errorf("workers=1 and workers=8 outputs differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
		}
	})
}

// TestSharedMatrixIsReadOnly runs one data shape on both engines and through
// the RDMA shuffle plugin at once, all three points reading one matrix; the
// race detector sees any write, and the digest shows one after the fact.
func TestSharedMatrixIsReadOnly(t *testing.T) {
	mrv1 := microbench.Config{
		Pattern: microbench.MRSkew, Combine: true,
		Engine: microbench.EngineMRv1, Cluster: microbench.ClusterA, Network: netsim.TenGigE.Name,
		Slaves: 4, NumMaps: 16, NumReduces: 8,
		KeySize: 512, ValueSize: 512,
	}.WithShuffleSize(gib(1))
	yarn := mrv1
	yarn.Engine = microbench.EngineYARN
	rdma := mrv1
	rdma.Cluster, rdma.Network, rdma.RDMAShuffle = microbench.ClusterB, netsim.RDMAFDR56.Name, true

	sweep := new(microbench.Sweep)
	spec, err := sweep.Spec(mrv1)
	if err != nil {
		t.Fatal(err)
	}
	before := spec.DataDigest()
	var wg sync.WaitGroup
	for _, cfg := range []microbench.Config{mrv1, yarn, rdma, mrv1, yarn, rdma} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sweep.Run(cfg); err != nil {
				t.Errorf("%s: %v", cfg.Label(), err)
			}
		}()
	}
	wg.Wait()
	for _, cfg := range []microbench.Config{yarn, rdma} {
		other, err := sweep.Spec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if &other.Partitions[0] != &spec.Partitions[0] {
			t.Fatalf("%s did not share the mrv1 point's matrix", cfg.Label())
		}
	}
	if after := spec.DataDigest(); after != before {
		t.Errorf("shared matrix changed under the engines: digest %s, was %s", after, before)
	}
}

// TestFigureDeterminismCachedVsUncached checks that replaying points from
// the cache yields byte-identical figures, and that the second cached run
// computes nothing.
func TestFigureDeterminismCachedVsUncached(t *testing.T) {
	cache, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// fig2a (plain sweep), fig7 (timelines), fig8a (RDMA case study) cover
	// every PointResult field the figures consume.
	for _, id := range []string{"fig2a", "fig7", "fig8a"} {
		f, ok := ByID(id)
		if !ok {
			t.Fatalf("figure %s missing", id)
		}
		uncached := renderAll(t, f, Options{Quick: true})
		cold := renderAll(t, f, Options{Quick: true, Cache: cache})
		preHits, preMisses := cache.Stats()
		warm := renderAll(t, f, Options{Quick: true, Cache: cache})
		hits, misses := cache.Stats()
		if uncached != cold {
			t.Errorf("%s: cold cached run differs from uncached run", id)
		}
		if cold != warm {
			t.Errorf("%s: warm cached run differs from cold run", id)
		}
		if misses != preMisses {
			t.Errorf("%s: warm run recomputed %d point(s)", id, misses-preMisses)
		}
		if hits == preHits {
			t.Errorf("%s: warm run recorded no cache hits", id)
		}
	}
}

// TestDistConfigRejected: the sweep runner only simulates. A config pinned
// to the real multi-process engine is an error that says where to run it,
// and nothing is cached for it.
func TestDistConfigRejected(t *testing.T) {
	cache, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := microbench.Config{
		Pattern: microbench.MRRand, Engine: microbench.EngineDist,
		Slaves: 2, NumMaps: 3, NumReduces: 2, KeySize: 32, ValueSize: 64, PairsPerMap: 200,
	}
	_, err = Runner{Cache: cache}.RunAll([]microbench.Config{cfg})
	if err == nil || !strings.Contains(err.Error(), "mrbench -engine=dist") {
		t.Fatalf("RunAll on a dist config: err = %v, want one naming mrbench -engine=dist", err)
	}
	if _, err := (Runner{Cache: cache}).RunAll([]microbench.Config{cfg}); err == nil {
		t.Error("second RunAll served the dist config from the cache")
	}
}
