package diskbtree

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// Format compatibility. The page, image and oplog formats are contracts
// with the files already on disks: goldenSums are the SHA-256 of the three
// files a fixed single-threaded history produced under the code before
// the buffer pool, page codec and oplog tail were rebuilt. Producing the
// same bytes from the same history, and then opening and recovering from
// them, is what "files written by the old code open under the new" means.
var goldenSums = map[string]string{
	"plain.db":     "4596191ac80017b252af8774b183d07de3431db8d835efe043e7cb34b573c9c0",
	"dur.db.ckpt":  "cdbdb8ff88b91304fcc0e17a24c00b3acee8993d12ea616adc138bfbdcefecd6",
	"dur.db.oplog": "22975f1191af8a5c8d64f1aea484a0e13004d1f6c80586716456fb0889bd8a21",
}

// goldenBuild runs the history against a plain and a durable tree and
// returns the sums of the plain tree file after Close, and of the durable
// tree's checkpoint image and oplog after a Sync plus a committed suffix,
// with the key→value maps the two trees must hold.
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
	for _, name := range []string{"plain.db", "dur.db" + ImageSuffix, "dur.db.oplog"} {
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
	// the image plus the oplog suffix.
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
