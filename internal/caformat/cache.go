package caformat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Key is the content address of a compile: SHA-256 over the rule text,
// front-end and compile options, domain-separated by the format version
// so a format bump invalidates every existing entry.
type Key [sha256.Size]byte

// String returns the hex form used as the cache file name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// NewKey hashes the given parts into a cache key. Each part is
// length-prefixed before hashing so part boundaries are unambiguous
// ("ab","c" and "a","bc" produce different keys).
func NewKey(parts ...string) Key {
	h := sha256.New()
	//cavet:ignore errdrop hash.Hash.Write is documented to never return an error
	h.Write([]byte(fmt.Sprintf("caformat/v%d\n", Version)))
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		//cavet:ignore errdrop hash.Hash.Write is documented to never return an error
		h.Write(n[:])
		//cavet:ignore errdrop hash.Hash.Write is documented to never return an error
		h.Write([]byte(p))
	}
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// Cache is a content-addressed directory of encoded automata: one
// <key>.caf file per compile. Entries are immutable once written; Put is
// atomic (temp + fsync + rename), so a crashed writer leaves at worst a
// stray temp file, never a torn entry, and concurrent writers of the
// same key converge on identical bytes because Encode is deterministic.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("caformat: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Path returns the file a key maps to, whether or not it exists.
func (c *Cache) Path(key Key) string {
	return filepath.Join(c.dir, key.String()+".caf")
}

// Get returns the encoded bytes for key. A missing entry is reported as
// an error satisfying errors.Is(err, os.ErrNotExist); callers distinguish
// miss (compile and Put) from corruption (Decode fails on the returned
// bytes — Remove and recompile).
func (c *Cache) Get(key Key) ([]byte, error) {
	return os.ReadFile(c.Path(key))
}

// Put stores data under key atomically: written to a temp file in the
// same directory, synced, then renamed over the final path.
func (c *Cache) Put(key Key, data []byte) (err error) {
	f, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("caformat: cache put: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	if _, err = f.Write(data); err != nil {
		err = errors.Join(err, f.Close())
		return fmt.Errorf("caformat: cache put: %w", err)
	}
	if err = f.Sync(); err != nil {
		err = errors.Join(err, f.Close())
		return fmt.Errorf("caformat: cache put: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("caformat: cache put: %w", err)
	}
	if err = os.Rename(f.Name(), c.Path(key)); err != nil {
		return fmt.Errorf("caformat: cache put: %w", err)
	}
	return nil
}

// Remove deletes the entry for key (used to evict corrupted entries so
// the next Put rewrites them). Removing an absent entry is not an error.
func (c *Cache) Remove(key Key) error {
	if err := os.Remove(c.Path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("caformat: cache remove: %w", err)
	}
	return nil
}
