// Package leaky sits under a cmd/ path: CLIs run to exit and the OS
// reclaims their handles, so the resource rule must stay silent here.
package leaky

import "os"

// Run leaks deliberately; the edge-package exemption swallows it.
func Run(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_ = f
	return nil
}
