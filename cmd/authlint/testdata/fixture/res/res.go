// Package res seeds exactly one resource leak: a dialed
// connection that is abandoned on the slow-probe branch.
package res

import (
	"net"
	"time"
)

// Probe leaks the connection when the deadline cannot be set: that
// branch returns without Close.
func Probe(addr string) bool {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return false
	}
	if c.SetDeadline(time.Now().Add(time.Second)) != nil {
		return false
	}
	c.Close()
	return true
}
