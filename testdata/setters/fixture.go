// Package fixture holds one struct field per rule of TestEveryFieldHasASetter:
// the fields named Unset… are the only ones the guard may report.
package fixture

import (
	"encoding/json"
	"strings"
	"sync/atomic"
)

type Config struct {
	Keyed       int             // a key of a composite literal
	Assigned    int             // the target of an assignment
	OpAssigned  int             // the target of an op-assignment
	Incremented int             // the target of ++
	Ranged      int             // the key of a range assignment
	Addressed   int             // an operand of &
	Path        inner           // selected on the way to an assigned field
	Counters    []atomic.Int64  // a pointer-method receiver through an index
	Builder     strings.Builder // a pointer-method receiver
	Lazy        []int           // a fill whose right side is not a constant
	Decoded     decoded         // a field of a JSON decode target
	UnsetFilled float64         // only a default fill with a constant
	UnsetCopied int             // only a default fill from a Default…() value
	UnsetNever  string          // read, never written
}

type inner struct{ Deep int }

type pair struct{ First, Second int } // a positional literal

type decoded struct {
	Items []item
}

type item struct{ Value int }

func DefaultConfig() Config { return Config{Keyed: 1} }

func Use(data []byte) (Config, pair, int, error) {
	c := DefaultConfig()
	c.Assigned = 2
	c.OpAssigned += 3
	c.Incremented++
	p := &c.Addressed
	c.Path.Deep = *p
	c.Counters[0].Store(4)
	c.Builder.WriteString(c.UnsetNever)
	if c.Lazy == nil {
		c.Lazy = make([]int, c.Keyed)
	}
	for c.Ranged = range c.Lazy {
	}
	if c.UnsetFilled <= 0 {
		c.UnsetFilled = 0.5
	}
	if c.UnsetCopied == 0 {
		c.UnsetCopied = DefaultConfig().UnsetCopied
	}
	err := json.Unmarshal(data, &c.Decoded)
	return c, pair{5, 6}, c.Decoded.Items[0].Value, err
}
