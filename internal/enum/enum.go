// Package enum derives the String, Validate, Parse and name-list methods
// of a small int-backed enum from one spelling table, so each enum spells
// its names exactly once.
package enum

import (
	"fmt"
	"strings"
)

// Table spells the values of an int-backed enum T: Names[v] is the flag
// spelling of value v, so the names are listed in iota order. The empty
// string parses as the zero value, the default.
type Table[T ~int] struct {
	// Type is the Go type name an out-of-range value prints as, e.g.
	// "Kind" for "Kind(7)".
	Type string
	// Unknown prefixes the rejection errors, e.g.
	// "membackend: unknown backend".
	Unknown string
	Names   []string
}

func (t Table[T]) valid(v T) bool { return v >= 0 && int(v) < len(t.Names) }

// String names v, or prints it as Type(v) when it is out of range.
func (t Table[T]) String(v T) string {
	if t.valid(v) {
		return t.Names[v]
	}
	return fmt.Sprintf("%s(%d)", t.Type, int(v))
}

// Validate rejects values with no name.
func (t Table[T]) Validate(v T) error {
	if t.valid(v) {
		return nil
	}
	return fmt.Errorf("%s %d", t.Unknown, int(v))
}

// Parse maps a flag spelling to its value; "" is the zero value.
func (t Table[T]) Parse(s string) (T, error) {
	if s == "" {
		return 0, nil
	}
	for v, name := range t.Names {
		if name == s {
			return T(v), nil
		}
	}
	return 0, fmt.Errorf("%s %q (have %s)", t.Unknown, s, strings.Join(t.Names, ", "))
}

// List returns a copy of the names for usage messages.
func (t Table[T]) List() []string { return append([]string(nil), t.Names...) }

// MarshalText spells v for JSON and flag.TextVar; a value with no name is
// an error.
func (t Table[T]) MarshalText(v T) ([]byte, error) {
	if err := t.Validate(v); err != nil {
		return nil, err
	}
	return []byte(t.Names[v]), nil
}

// UnmarshalText parses a spelling into *v, which a rejected spelling
// leaves unchanged.
func (t Table[T]) UnmarshalText(v *T, text []byte) error {
	p, err := t.Parse(string(text))
	if err == nil {
		*v = p
	}
	return err
}
