package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// checkKeys walks the keys of a document the strict decoder accepted,
// beside the Spec type they decode into, and refuses what that decoder
// lets through silently: a key repeated within one object, whose last
// value would win, and a key that matches a field's name only when case
// is ignored. The error names the key's path. The decoder has checked
// that the document's first value is well-formed JSON, and the walk
// reads only that value, in one forward pass over its bytes that
// unquotes only keys with escapes: a json.Decoder.Token pass decodes
// every scalar too, and cost as much again as the strict decode.
func checkKeys(name string, data []byte) error {
	w := keyWalk{name: name, data: data}
	return w.value(reflect.TypeOf(Spec{}))
}

// keyWalk is checkKeys' position in the document, and the path to it:
// one entry per enclosing object key or array index.
type keyWalk struct {
	name string
	data []byte
	i    int
	path []pathStep
}

// pathStep is one step of a key path: an object key, or an array
// index when key is nil.
type pathStep struct {
	key []byte
	idx int
}

// fail returns a pathed error at the walk's current path.
func (w *keyWalk) fail(format string, args ...any) error {
	var b strings.Builder
	for _, p := range w.path {
		switch {
		case p.key == nil:
			fmt.Fprintf(&b, "[%d]", p.idx)
		case b.Len() > 0:
			b.WriteByte('.')
			fallthrough
		default:
			b.Write(p.key)
		}
	}
	return errf(w.name, b.String(), format, args...)
}

// next skips white space and returns the byte at the walk's position.
func (w *keyWalk) next() byte {
	for ; w.i < len(w.data); w.i++ {
		switch c := w.data[w.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// str consumes the string at the walk's position and returns its
// contents, unquoted when it holds an escape.
func (w *keyWalk) str() ([]byte, error) {
	start, esc := w.i, false
	for w.i++; w.data[w.i] != '"'; w.i++ {
		if w.data[w.i] == '\\' {
			w.i++
			esc = true
		}
	}
	w.i++
	if !esc {
		return w.data[start+1 : w.i-1], nil
	}
	var s string
	if err := json.Unmarshal(w.data[start:w.i], &s); err != nil {
		return nil, &Error{Scenario: w.name, Path: "(json)", Msg: err.Error()}
	}
	return []byte(s), nil
}

// value walks the value at the walk's position, which decodes into type
// t (nil where the spec types do not reach).
func (w *keyWalk) value(t reflect.Type) error {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch w.next() {
	case '{':
		w.i++
		fields := specFields[t]
		var seen [][]byte
		for w.next() != '}' {
			if w.data[w.i] == ',' {
				w.i++
				w.next()
			}
			key, err := w.str()
			if err != nil {
				return err
			}
			w.path = append(w.path, pathStep{key: key})
			for _, k := range seen {
				if bytes.Equal(k, key) {
					return w.fail("repeated key; keys must be unique within an object")
				}
			}
			seen = append(seen, key)
			ft, exact := fields[string(key)]
			if !exact {
				for f := range fields {
					if strings.EqualFold(f, string(key)) {
						return w.fail("key matches field %q only without regard to case; keys are case-sensitive", f)
					}
				}
			}
			w.next()
			w.i++ // the colon
			if err := w.value(ft); err != nil {
				return err
			}
			w.path = w.path[:len(w.path)-1]
		}
		w.i++
	case '[':
		w.i++
		var elem reflect.Type
		if t != nil && t.Kind() == reflect.Slice {
			elem = t.Elem()
		}
		for k := 0; w.next() != ']'; k++ {
			if w.data[w.i] == ',' {
				w.i++
			}
			w.path = append(w.path, pathStep{idx: k})
			if err := w.value(elem); err != nil {
				return err
			}
			w.path = w.path[:len(w.path)-1]
		}
		w.i++
	case '"':
		if _, err := w.str(); err != nil {
			return err
		}
	default: // a number, true, false or null
		for w.i < len(w.data) && !strings.ContainsRune(",]} \t\n\r", rune(w.data[w.i])) {
			w.i++
		}
	}
	return nil
}

// specFields maps each struct type a Spec decodes into to its fields,
// by JSON name; built once, from the Spec type.
var specFields = func() map[reflect.Type]map[string]reflect.Type {
	out := map[reflect.Type]map[string]reflect.Type{}
	var add func(t reflect.Type)
	add = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
			t = t.Elem()
		}
		if _, done := out[t]; done || t.Kind() != reflect.Struct {
			return
		}
		fields := make(map[string]reflect.Type, t.NumField())
		out[t] = fields
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); f.IsExported() && tag != "" {
				fields[tag] = f.Type
				add(f.Type)
			}
		}
	}
	add(reflect.TypeOf(Spec{}))
	return out
}()
