package diskbtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"btreeperf/internal/pagestore"
)

// Format compatibility. The page, map, meta and oplog formats are
// contracts with the files already on disks: goldenSums are the SHA-256 of
// the three files a fixed single-threaded history produces under layout 2
// (pages in slots through a slot map, two meta pages; recorded when that
// layout replaced the .ckpt image). Producing the same bytes from the same
// history, and then opening and recovering from them, is what "files
// written by the old code open under the new" means. A layout-1 file (a
// page id was its offset, and a durable tree kept a second copy in a .ckpt
// image) is refused with pagestore.ErrLayoutV1: there is no second
// recovery path to read one.
var goldenSums = map[string]string{
	"plain.db":     "313e947e476162c2492d475905a318d5cc93dd3081d16249f9411868d53d32ac",
	"dur.db":       "3aa34e75bf673cf973c341abcff4ecd06fb8256cd5f61d2e56142bf5ec3c8474",
	"dur.db.oplog": "22975f1191af8a5c8d64f1aea484a0e13004d1f6c80586716456fb0889bd8a21",
}

// goldenBuild runs the history against a plain and a durable tree and
// returns the sums of the plain tree file after Close, and of the durable
// tree's file and oplog after a Sync plus a committed suffix, with the
// key→value maps the two trees must hold.
func goldenBuild(t *testing.T) (dir string, sums map[string]string, plainModel, durModel map[int64]uint64) {
	t.Helper()
	dir = t.TempDir()
	plainModel, durModel = map[int64]uint64{}, map[int64]uint64{}
	mutate := func(tr *Tree, model map[int64]uint64, seed uint64, n int) {
		// The PCG stream xrand.New(seed) draws from: the history the
		// golden sums were recorded with.
		src := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		for i := 0; i < n; i++ {
			k := src.Int64N(400)
			var err error
			if src.Float64() < 0.75 {
				v := src.Uint64()
				_, err = tr.Insert(k, v)
				model[k] = v
			} else {
				_, err = tr.Delete(k)
				delete(model, k)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, err := Open(filepath.Join(dir, "plain.db"), Options{Cap: 6, CacheNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mutate(plain, plainModel, 11, 900)
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	dur, err := Open(filepath.Join(dir, "dur.db"), Options{Cap: 6, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	mutate(dur, durModel, 12, 700)
	if err := dur.Sync(); err != nil {
		t.Fatal(err)
	}
	mutate(dur, durModel, 13, 150)
	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	// dur is abandoned un-Closed: the files are a crash image.
	sums = map[string]string{}
	for _, name := range []string{"plain.db", "dur.db", "dur.db.oplog"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		sums[name] = hex.EncodeToString(h[:])
	}
	return dir, sums, plainModel, durModel
}

func TestFormatCompatibility(t *testing.T) {
	dir, sums, plainModel, durModel := goldenBuild(t)
	for name, want := range goldenSums {
		if sums[name] != want {
			t.Errorf("%s hashes to %s, the previous code wrote %s: the on-disk format moved", name, sums[name], want)
		}
	}
	holds := func(tr *Tree, model map[int64]uint64) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(model))
		}
		for k, want := range model {
			if got, ok, err := tr.Search(k); err != nil || !ok || got != want {
				t.Fatalf("key %d = %d,%v,%v, want %d", k, got, ok, err, want)
			}
		}
	}
	plain, err := Open(filepath.Join(dir, "plain.db"), Options{Cap: 6, CacheNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	holds(plain, plainModel)
	// The durable tree was abandoned mid-life: this is crash recovery from
	// its last checkpoint plus the oplog suffix.
	dur, err := Open(filepath.Join(dir, "dur.db"), Options{Cap: 6, CacheNodes: 8, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if dur.Recovered() == 0 {
		t.Error("no oplog suffix was replayed")
	}
	holds(dur, durModel)
}

// TestLayoutV1TreeRefused: the tree file of a layout-1 directory — its meta
// page at offset 0, beside a .ckpt image — is refused with the versioned
// error, durable or not, and nothing in the directory is changed.
func TestLayoutV1TreeRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	var v1 [pagestore.PageSize]byte
	binary.LittleEndian.PutUint32(v1[:], 0x42545045) // the layout-1 meta magic
	binary.LittleEndian.PutUint32(v1[pagestore.PageSize-4:], crc32.ChecksumIEEE(v1[:pagestore.PageSize-4]))
	for _, name := range []string{path, path + ".ckpt"} {
		if err := os.WriteFile(name, v1[:], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, durable := range []bool{false, true} {
		if _, err := Open(path, Options{Durable: durable}); !errors.Is(err, pagestore.ErrLayoutV1) {
			t.Fatalf("Open(durable=%v) of a layout-1 tree = %v, want ErrLayoutV1", durable, err)
		}
	}
	if b, err := os.ReadFile(path); err != nil || len(b) != pagestore.PageSize {
		t.Fatalf("the refused file was changed: %d bytes, %v", len(b), err)
	}
}
