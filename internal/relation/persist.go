package relation

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"prodsys/internal/value"
)

// The persistence format is line-oriented text:
//
//	#relation <name> <attr> <attr> ...
//	<id>\t<value>\t<value>...
//
// Values are kind-prefixed: i:42, f:2.5, y:symbol, s:"quoted string",
// n: (nil). Tuple IDs are preserved across a dump/restore cycle, so
// conflict-set keys and recency stay meaningful — the working memory "can
// reside on secondary storage and be persistent" (paper §3.2).

// EncodeValue renders one value in the kind-prefixed dump encoding. The
// write-ahead log uses the same encoding for tuple payloads.
func EncodeValue(v value.V) string {
	switch v.Kind() {
	case value.Int:
		return "i:" + strconv.FormatInt(v.AsInt(), 10)
	case value.Float:
		return "f:" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case value.Sym:
		return "y:" + v.AsString()
	case value.Str:
		return "s:" + strconv.Quote(v.AsString())
	default:
		return "n:"
	}
}

// DecodeValue parses one value in the kind-prefixed dump encoding.
func DecodeValue(s string) (value.V, error) {
	if len(s) < 2 || s[1] != ':' {
		return value.V{}, fmt.Errorf("relation: malformed value %q", s)
	}
	body := s[2:]
	switch s[0] {
	case 'i':
		i, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return value.V{}, fmt.Errorf("relation: bad int %q: %v", body, err)
		}
		return value.OfInt(i), nil
	case 'f':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return value.V{}, fmt.Errorf("relation: bad float %q: %v", body, err)
		}
		return value.OfFloat(f), nil
	case 'y':
		return value.OfSym(body), nil
	case 's':
		str, err := strconv.Unquote(body)
		if err != nil {
			return value.V{}, fmt.Errorf("relation: bad string %q: %v", body, err)
		}
		return value.OfString(str), nil
	case 'n':
		return value.V{}, nil
	default:
		return value.V{}, fmt.Errorf("relation: unknown value kind %q", s)
	}
}

// Dump writes every relation of the catalog in the text format, relations
// and tuples in deterministic order.
func (db *DB) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range db.Names() {
		rel, err := db.Lookup(name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "#relation %s %s\n", name, strings.Join(rel.Schema().Attrs(), " ")); err != nil {
			return err
		}
		var scanErr error
		rel.Scan(func(id TupleID, t Tuple) bool {
			parts := make([]string, 1, len(t)+1)
			parts[0] = strconv.FormatUint(uint64(id), 10)
			for _, v := range t {
				parts = append(parts, EncodeValue(v))
			}
			if _, err := fmt.Fprintln(bw, strings.Join(parts, "\t")); err != nil {
				scanErr = err
				return false
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
	}
	return bw.Flush()
}

// RestoredTuple is one tuple read back from a dump, delivered to the
// caller so it can replay matcher maintenance.
type RestoredTuple struct {
	Class string
	ID    TupleID
	Tuple Tuple
}

// Restore reads a dump into the catalog. Relations must already exist
// with matching schemas (the rule program defines them); tuple IDs are
// preserved. The restored tuples are returned in file order so the caller
// can replay them through its matcher.
//
// Restore is all-or-nothing: the whole dump is parsed and validated —
// headers against the catalog, values, tuple IDs against both the live
// contents and the dump itself — before any relation is mutated. On
// error the catalog is untouched and no tuples are returned.
func (db *DB) Restore(r io.Reader) ([]RestoredTuple, error) {
	staged, err := db.parseDump(r)
	if err != nil {
		return nil, err
	}
	// Validation passed for every line; apply the whole dump.
	for _, rt := range staged {
		rel, err := db.Lookup(rt.Class)
		if err != nil {
			return nil, fmt.Errorf("relation: restore apply: %v", err)
		}
		if err := rel.insertWithID(rt.ID, rt.Tuple); err != nil {
			// Unreachable after validation; report rather than panic.
			return nil, fmt.Errorf("relation: restore apply: %v", err)
		}
	}
	return staged, nil
}

// parseDump reads and validates a dump without touching the catalog.
func (db *DB) parseDump(r io.Reader) ([]RestoredTuple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var cur *Relation
	var curName string
	var out []RestoredTuple
	// seen guards against duplicate IDs within the dump; live IDs are
	// checked against the relation itself.
	seen := map[string]map[TupleID]bool{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#relation ") {
			fields := strings.Fields(text)
			if len(fields) < 3 {
				return nil, fmt.Errorf("relation: line %d: malformed header %q", line, text)
			}
			name := fields[1]
			rel, ok := db.Get(name)
			if !ok {
				return nil, fmt.Errorf("relation: line %d: relation %s not in catalog", line, name)
			}
			attrs := rel.Schema().Attrs()
			if len(attrs) != len(fields)-2 {
				return nil, fmt.Errorf("relation: line %d: %s has %d attributes, dump has %d",
					line, name, len(attrs), len(fields)-2)
			}
			for i, a := range attrs {
				if a != fields[i+2] {
					return nil, fmt.Errorf("relation: line %d: attribute mismatch %q vs %q", line, a, fields[i+2])
				}
			}
			cur, curName = rel, name
			if seen[curName] == nil {
				seen[curName] = map[TupleID]bool{}
			}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("relation: line %d: tuple before any #relation header", line)
		}
		parts := strings.Split(text, "\t")
		if len(parts) != cur.Schema().Arity()+1 {
			return nil, fmt.Errorf("relation: line %d: expected %d fields, got %d",
				line, cur.Schema().Arity()+1, len(parts))
		}
		idU, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("relation: line %d: bad tuple id %q", line, parts[0])
		}
		t := make(Tuple, len(parts)-1)
		for i, p := range parts[1:] {
			v, err := DecodeValue(p)
			if err != nil {
				return nil, fmt.Errorf("relation: line %d: %v", line, err)
			}
			t[i] = v
		}
		id := TupleID(idU)
		if seen[curName][id] {
			return nil, fmt.Errorf("relation: line %d: relation %s: duplicate tuple id %d", line, curName, id)
		}
		if _, live := cur.Get(id); live {
			return nil, fmt.Errorf("relation: line %d: relation %s: tuple id %d already live", line, curName, id)
		}
		seen[curName][id] = true
		out = append(out, RestoredTuple{Class: curName, ID: id, Tuple: t})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// insertWithID stores a tuple under a specific ID (restore, WAL
// recovery and replica apply). The row store accepts out-of-order IDs,
// and the relation's ID counter is raised so future inserts never
// collide with restored tuples.
func (r *Relation) insertWithID(id TupleID, t Tuple) error {
	if err := r.checkArity(t); err != nil {
		return err
	}
	ct := t.Clone()
	r.internTuple(ct)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.store.Get(id); dup {
		return fmt.Errorf("relation %s: duplicate tuple id %d", r.Name(), id)
	}
	r.store.Insert(id, ct)
	if id > r.next {
		r.next = id
	}
	return nil
}

// InsertAt stores a tuple under a caller-chosen ID — the write-ahead-log
// recovery path, which must reproduce the exact IDs the original run
// assigned so conflict-set keys and recency survive a restart. It is an
// error if the ID is already live.
func (r *Relation) InsertAt(id TupleID, t Tuple) error {
	return r.insertWithID(id, t)
}
