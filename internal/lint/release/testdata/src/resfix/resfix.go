// Package resfix exercises the resource rule: std acquisitions, the Accept
// rule, and the interprocedural transfer/consume summaries.
package resfix

import (
	"net"
	"os"
	"time"
)

// LeakOnBranch abandons the dialed conn when the handshake declines.
func LeakOnBranch(addr string, slow bool) bool {
	c, err := net.Dial("tcp", addr) // want "net.Conn from net.Dial \"c\" is not released on every path on the path via slow"
	if err != nil {
		return false
	}
	if slow {
		return false
	}
	c.Close()
	return true
}

// DiscardTicker drops the ticker, which leaks its goroutine forever.
func DiscardTicker(d time.Duration) {
	time.NewTicker(d) // want "is discarded without being released"
}

// AcceptLeak loses the accepted conn on the throttle path.
func AcceptLeak(ln net.Listener, throttle bool) {
	c, err := ln.Accept() // want "conn from .net.Listener..Accept \"c\" is not released on every path"
	if err != nil {
		return
	}
	if throttle {
		return
	}
	c.Close()
}

// CloseOK releases on the happy path and owes nothing on the error
// path: the error convention proves f is nil there.
func CloseOK(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}

// open transfers ownership out: the constructor summary moves the
// obligation to the caller.
func open(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// TransferLeak owns open's result and never closes it.
func TransferLeak(addr string) error {
	c, err := open(addr) // want "\"c\" is not released on every path"
	if err != nil {
		return err
	}
	return c.SetDeadline(time.Now())
}

// holder consumes a conn: storing it transfers ownership to whoever
// owns the holder.
type holder struct{ c net.Conn }

func keep(c net.Conn) *holder { return &holder{c: c} }

// StoreOK hands the conn to a holder; the escape is the release.
func StoreOK(addr string) (*holder, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return keep(c), nil
}

// StopOK releases a ticker with Stop (the Close of the timer family).
func StopOK(d time.Duration) {
	t := time.NewTicker(d)
	defer t.Stop()
	<-t.C
}
