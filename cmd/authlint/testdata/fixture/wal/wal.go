// Package wal seeds one WAL schema violation: a record-type switch that
// forgot the newest constant.
package wal

// Type discriminates fixture records.
type Type uint8

const (
	TypeCreate Type = 1
	TypeDelete Type = 2
)

func Encode(t Type) byte {
	switch t {
	case TypeCreate:
		return 1
	default:
		return 0
	}
}
