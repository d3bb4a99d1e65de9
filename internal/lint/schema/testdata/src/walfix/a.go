// Package wal (fixture) exercises the WAL rules inside the schema-owning
// package: switch exhaustiveness over the local Type and a record
// table that matches the constants exactly (silent).
package wal

import "fmt"

// Type discriminates fixture records.
type Type uint8

const (
	TypeAlpha Type = 1
	TypeBeta  Type = 2
	TypeGamma Type = 3
)

// String covers every constant; silent.
func (t Type) String() string {
	switch t {
	case TypeAlpha:
		return "alpha"
	case TypeBeta:
		return "beta"
	case TypeGamma:
		return "gamma"
	}
	return fmt.Sprintf("wal.Type(%d)", uint8(t))
}

// Encode forgot the newest record type; the default arm is no excuse.
func Encode(t Type) byte {
	switch t { // want "switch on wal.Type misses TypeGamma"
	case TypeAlpha:
		return 1
	case TypeBeta:
		return 2
	default:
		return 0
	}
}

// Decode forgot two.
func Decode(b byte) error {
	switch Type(b) { // want "switch on wal.Type misses TypeBeta, TypeGamma"
	case TypeAlpha:
		return nil
	}
	return fmt.Errorf("unknown")
}

// Unrelated switches are not schema switches; silent.
func Classify(n int) string {
	switch n {
	case 1:
		return "one"
	}
	return "many"
}

// The table below matches the constants exactly; silent.
//
//lint:recordtable table.md
var _ = TypeAlpha
