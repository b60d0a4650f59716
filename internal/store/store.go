package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"wimc/internal/engine"
	"wimc/internal/exp/pool"
	"wimc/internal/spec"
)

// Store is a content-addressed on-disk Result cache: one JSON file per
// Result, named by its spec.PointKey. Layout:
//
//	<dir>/objects/<key[:2]>/<key>.json
//
// Writes are atomic (temp file + rename), so concurrent writers — several
// daemon jobs, a wimcbench run racing a wimcctl run — can share one store
// without coordination: the worst case is the same bytes written twice.
// Keys embed engine.Version, so entries written by an older engine build
// are never returned for a newer one; they simply stop being addressed.
type Store struct {
	dir string
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey rejects anything that is not a lower-hex SHA-256 — keys name
// files, so this is also the path-traversal guard for daemon input.
func validKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("store: key %q is not a 64-char hex digest", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not a 64-char hex digest", key)
		}
	}
	return nil
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// Get returns the cached Result under key, with ok reporting whether one
// exists. A missing entry is (nil, false, nil); a corrupt one is an error.
func (s *Store) Get(key string) (*engine.Result, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(s.objectPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
	var r engine.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, false, fmt.Errorf("store: get %s: corrupt entry: %w", key, err)
	}
	return &r, true, nil
}

// Put stores r under key, atomically replacing any existing entry.
func (s *Store) Put(key string, r *engine.Result) error {
	if err := validKey(key); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	dir := filepath.Dir(s.objectPath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.objectPath(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Keys returns every cached key in sorted order.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if filepath.Ext(name) != ".json" {
			return nil
		}
		key := name[:len(name)-len(".json")]
		if validKey(key) == nil {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: keys: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of cached Results.
func (s *Store) Len() (int, error) {
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// Stats summarizes one cached batch execution. Misses is exactly the
// number of engine runs performed — a warm re-run of an identical spec
// reports Misses == 0.
type Stats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// Observer receives each batch entry as it completes: cached entries
// first (in input order, from the calling goroutine), then engine runs as
// they land — concurrently, from worker goroutines, so implementations
// must be thread-safe.
type Observer func(i int, r *engine.Result, cached bool)

// RunPoints executes expanded spec points through the cache: cached
// entries are served from st, the rest run on a pool of at most workers
// goroutines (<= 0 means runtime.GOMAXPROCS(0), 1 a plain sequential loop
// with no goroutines) and are stored as they complete, so even an
// interrupted batch keeps its finished points. Each key is computed from
// the point's Config and Traffic rather than taken from Point.Key, so a
// hand-built Point cannot file its Result under another point's key. A nil
// st runs everything (all misses, nothing stored).
//
// Results are in input order, and the returned error, which names its
// point, is the lowest-index failure (see the package doc). The worker
// budget is split between the pool and each run's route-table build: a
// pool as wide as the budget builds sequentially, a narrower one (few
// misses) hands each run the leftover workers. Route tables are the same
// at every worker count, so the split moves no Result byte.
func RunPoints(st *Store, workers int, pts []spec.Point, obs Observer) ([]*engine.Result, Stats, error) {
	results := make([]*engine.Result, len(pts))
	var stats Stats
	keys := make([]string, len(pts))
	var missIdx []int
	for i, pt := range pts {
		if st == nil {
			missIdx = append(missIdx, i)
			continue
		}
		key, err := spec.PointKey(pt.Config, pt.Traffic)
		if err != nil {
			return nil, stats, fmt.Errorf("store: point %d (%s): %w", i, pt.Config.Name, err)
		}
		keys[i] = key
		r, ok, err := st.Get(key)
		if err != nil {
			return nil, stats, err
		}
		if ok {
			results[i] = r
			stats.Hits++
			if obs != nil {
				obs(i, r, true)
			}
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return results, stats, nil
	}
	budget := workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	buildWorkers := budget / min(budget, len(missIdx))
	err := pool.ForEach(workers, len(missIdx), func(j int) error {
		i := missIdx[j]
		p := pts[i].Params()
		p.BuildWorkers = buildWorkers
		r, err := engine.Run(p)
		if err == nil && st != nil {
			err = st.Put(keys[i], r)
		}
		if err != nil {
			return fmt.Errorf("store: point %d (%s): %w", i, pts[i].Config.Name, err)
		}
		results[i] = r
		if obs != nil {
			obs(i, r, false)
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Misses = len(missIdx)
	return results, stats, nil
}

// RunSpec expands sp and executes it through the cache. Workers is taken
// from sp unless overridden by workers > 0.
func RunSpec(st *Store, workers int, sp *spec.Spec, obs Observer) ([]spec.Point, []*engine.Result, Stats, error) {
	pts, err := sp.Expand()
	if err != nil {
		return nil, nil, Stats{}, err
	}
	if workers <= 0 {
		workers = sp.Workers
	}
	rs, stats, err := RunPoints(st, workers, pts, obs)
	if err != nil {
		return nil, nil, stats, err
	}
	return pts, rs, stats, nil
}
