// Command tool is a program edge: CLIs and examples print provisioned
// keys as their user interface, so secretflow exempts every package
// under cmd/ or examples/. Emit is the flow secretpkg's Emit reports
// in a library package; here it reports nothing.
package main

import "log"

// Token is raw authentication key material.
//
//lint:secret raw device token
type Token struct {
	bits []byte
}

// Emit logs the token itself.
func Emit(t Token) {
	log.Printf("token=%v", t)
}

func main() {
	Emit(Token{bits: []byte{1, 2, 3}})
}
