// Package authenticache is a full reimplementation of "Authenticache:
// Harnessing Cache ECC for System Authentication" (Bacha & Teodorescu,
// MICRO-48, 2015): a Physical Unclonable Function built from the
// pattern of low-voltage correctable ECC errors in processor caches,
// plus the complete authentication system around it.
//
// Because real cache-ECC probing needs firmware-level voltage control,
// the silicon is simulated: a process-variation model drives a
// bit-accurate SECDED-protected SRAM, a voltage controller calibrates
// the safe floor, and an SMM-style firmware client answers challenges
// by self-testing cache lines — the same architecture as the paper's
// Itanium prototype (see DESIGN.md for the substitution map).
//
// # Quick start
//
//	chip, _ := authenticache.NewChip(authenticache.ChipConfig{Seed: 42})
//	levels := chip.AuthVoltagesMV(2, 10)           // challenge voltages
//	emap, _ := chip.Enroll(levels)                 // factory characterisation
//
//	srv := authenticache.NewServer(authenticache.DefaultServerConfig(), 1)
//	key, _ := srv.Enroll(ctx, "device-42", emap)
//	dev := authenticache.NewResponder("device-42", chip.Device(), key)
//
//	ch, _ := srv.IssueChallenge(ctx, "device-42")
//	resp, _ := dev.Respond(ch)
//	ok, _ := srv.Verify(ctx, "device-42", ch.ID, resp)  // true for real silicon
//
// The internal packages carry the substrates (variation, sram, ecc,
// cache, voltage, firmware, errormap, crp, mapkey, noise, attack,
// montecarlo, experiments); this package re-exports the surface a
// downstream integrator needs.
package authenticache

import (
	"context"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/crp"
	"repro/internal/enroll"
	"repro/internal/errormap"
	"repro/internal/keygen"
	"repro/internal/mapkey"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/variation"
)

// Chip is a simulated client device: variation model, ECC SRAM,
// voltage controller, and SMM firmware.
type Chip = core.Chip

// ChipConfig configures a simulated chip; the zero value plus a Seed
// gives a 4 MB, 8-core device with paper-calibrated variation.
type ChipConfig = core.ChipConfig

// NewChip builds and boot-calibrates a chip.
func NewChip(cfg ChipConfig) (*Chip, error) { return core.NewChip(cfg) }

// Environment captures field conditions (temperature delta, aging).
type Environment = variation.Environment

// Server is the authenticating server: enrollment database, challenge
// generation, verification, and key updates.
type Server = auth.Server

// ServerConfig tunes the server.
type ServerConfig = auth.Config

// ClientID names an enrolled device.
type ClientID = auth.ClientID

// DefaultServerConfig mirrors the paper's operating point.
func DefaultServerConfig() ServerConfig { return auth.DefaultConfig() }

// NewServer creates an authentication server.
func NewServer(cfg ServerConfig, seed uint64) *Server { return auth.NewServer(cfg, seed) }

// Responder is the client-side agent: it owns a device and the current
// remap key.
type Responder = auth.Responder

// Device abstracts the client PUF hardware.
type Device = auth.Device

// NewResponder binds a device to its identity and provisioned key.
func NewResponder(id ClientID, dev Device, key Key) *Responder {
	return auth.NewResponder(id, dev, key)
}

// NewSimDevice wraps a measured error map as a fast map-backed device
// (Monte Carlo and fleet simulations).
func NewSimDevice(m *ErrorMap) *auth.SimDevice { return auth.NewSimDevice(m) }

// Key is the 256-bit logical-remap key shared between server and
// client.
type Key = mapkey.Key

// Challenge is a list of logical coordinate pairs; Response is the
// packed answer bits.
type Challenge = crp.Challenge

// Response is a packed challenge answer.
type Response = crp.Response

// ErrorMap is a chip's per-voltage error volume — the enrollment
// artifact the server stores.
type ErrorMap = errormap.Map

// ErrorPlane is one voltage level's error bitmap.
type ErrorPlane = errormap.Plane

// NewErrorMap creates an empty error map over a geometry.
func NewErrorMap(g MapGeometry) *ErrorMap { return errormap.NewMap(g) }

// NewErrorPlane creates an empty error plane over a geometry.
func NewErrorPlane(g MapGeometry) *ErrorPlane { return errormap.NewPlane(g) }

// MapGeometry describes an error map's plane layout.
type MapGeometry = errormap.Geometry

// NewMapGeometry returns the near-square layout for n cache lines.
func NewMapGeometry(lines int) MapGeometry { return errormap.NewGeometry(lines) }

// WireServer exposes the protocol over TCP in the multiplexed binary
// framing (docs/PROTOCOL.md).
type WireServer = auth.WireServer

// WireClient is the TCP client transport. It is safe for concurrent
// use: overlapping transactions pipeline over the one connection,
// each on its own stream.
type WireClient = auth.WireClient

// NewWireServer wraps a Server for TCP serving.
func NewWireServer(s *Server) *WireServer { return auth.NewWireServer(s) }

// WireConfig tunes the wire server's hardening limits and overload
// shedding (frame size cap, idle timeout, in-flight transaction cap,
// connection cap, per-conn stream cap). The zero value keeps the
// defaults with shedding disabled.
type WireConfig = auth.WireConfig

// NewWireServerConfig wraps a Server for TCP serving with explicit
// wire limits and overload behaviour.
func NewWireServerConfig(s *Server, cfg WireConfig) (*WireServer, error) {
	return auth.NewWireServerConfig(s, cfg)
}

// Dial connects to a WireServer; ctx bounds the connection attempt.
func Dial(ctx context.Context, addr string) (*WireClient, error) { return auth.Dial(ctx, addr) }

// DialV2 is Dial.
//
// Deprecated: there is one framing; use Dial.
func DialV2(ctx context.Context, addr string) (*WireClient, error) { return auth.Dial(ctx, addr) }

// ResilientClient is a WireClient that survives a hostile wire:
// dropped connections redial, transient failures retry with capped
// exponential backoff and jitter, and protocol verdicts (a burned
// challenge, a rejection) surface immediately without a retry. It is
// safe for concurrent use: concurrent transactions pipeline over one
// shared connection.
type ResilientClient = auth.ResilientClient

// RetryPolicy tunes a ResilientClient's retry loop; the zero value
// means 10 attempts from 10 ms backoff doubling to a 2 s cap with 50%
// jitter.
type RetryPolicy = auth.RetryPolicy

// RetryStats counts a ResilientClient's attempts, retries,
// reconnects, and shed responses.
type RetryStats = auth.RetryStats

// DialResilient connects to a WireServer with retry behaviour.
func DialResilient(ctx context.Context, addr string, policy RetryPolicy) (*ResilientClient, error) {
	return auth.DialResilient(ctx, addr, policy)
}

// Retryable reports whether an error is safe to retry as a fresh
// transaction: true for transport loss and server overload
// (unavailable), false for every protocol verdict — most critically a
// burned challenge, whose response must never be replayed.
func Retryable(err error) bool { return auth.Retryable(err) }

// ServerStats is a snapshot of the server's service counters.
type ServerStats = auth.ServerStats

// AuthError is the typed error every authentication operation returns
// on failure: a stable ErrorCode, the client concerned, and a wrapped
// cause that satisfies errors.Is against the sentinel errors below —
// identically for in-process calls and errors received over TCP.
type (
	AuthError = auth.AuthError
	ErrorCode = auth.ErrorCode
)

// Sentinel errors re-exported from the auth layer.
var (
	ErrUnknownClient    = auth.ErrUnknownClient
	ErrAlreadyEnrolled  = auth.ErrAlreadyEnrolled
	ErrUnknownChallenge = auth.ErrUnknownChallenge
	ErrExhausted        = auth.ErrExhausted
	ErrNoRemapPending   = auth.ErrNoRemapPending
	ErrBadPlane         = auth.ErrBadPlane
	ErrUnavailable      = auth.ErrUnavailable
)

// ErrorCodeOf extracts the stable ErrorCode from any error produced by
// the authentication layer.
func ErrorCodeOf(err error) ErrorCode { return auth.CodeOf(err) }

// PossibleCRPs returns n(n-1)/2, the challenge budget of an n-line
// cache at one voltage (paper equation (10)).
func PossibleCRPs(lines int) uint64 { return crp.PossibleCRPs(lines) }

// DailyAuthentications computes the sustainable daily authentication
// rate over lifetimeDays without reusing pairs (paper Table 1).
func DailyAuthentications(lines, crpBits, lifetimeDays int) uint64 {
	return crp.DailyAuthentications(lines, crpBits, lifetimeDays)
}

// QualityReport is the PUF report card over a chip population (paper
// Section 2.2 metric suite plus per-bit entropy).
type QualityReport = quality.Report

// QualityConfig tunes a report run.
type QualityConfig = quality.Config

// EvaluateQuality runs the report card over one error plane per chip.
func EvaluateQuality(planes []*ErrorPlane, cfg QualityConfig) (*QualityReport, error) {
	return quality.Evaluate(planes, cfg)
}

// DefaultQualityConfig evaluates 256-bit CRPs under normal field noise.
func DefaultQualityConfig() QualityConfig { return quality.DefaultConfig() }

// EnrollCriteria are the factory acceptance thresholds; EnrollResult
// reports a chip's screening outcome.
type (
	EnrollCriteria = enroll.Criteria
	EnrollResult   = enroll.Result
)

// CharacterizeChip runs the factory enrollment station on a chip.
func CharacterizeChip(chip *Chip, id ClientID, crit EnrollCriteria) (*EnrollResult, error) {
	return enroll.Characterize(chip, id, crit)
}

// ProvisionChip enrolls an accepted chip into a server and returns the
// device key.
func ProvisionChip(ctx context.Context, srv *Server, res *EnrollResult) (Key, error) {
	return enroll.Provision(ctx, srv, res)
}

// DefaultEnrollCriteria returns the acceptance thresholds scaled to a
// cache size.
func DefaultEnrollCriteria(cacheLines int) EnrollCriteria {
	return enroll.DefaultCriteria(cacheLines)
}

// KeygenParams configures PUF key derivation; KeygenBundle is the
// public provisioning artifact (paper Section 7.3 application).
type (
	KeygenParams = keygen.Params
	KeygenBundle = keygen.Bundle
)

// RandSource is the deterministic generator used across the simulator
// (xoshiro256**); production key provisioning would substitute a
// CSPRNG-backed source.
type RandSource = rng.Rand

// NewRandSource creates a seeded generator.
func NewRandSource(seed uint64) *RandSource { return rng.New(seed) }

// ProvisionKey binds a fresh secret to the device's PUF and returns
// the public bundle plus the derived 256-bit key.
func ProvisionKey(dev Device, p KeygenParams, secretRand *RandSource) (*KeygenBundle, [32]byte, error) {
	return keygen.Provision(dev, p, secretRand)
}

// RecoverKey re-derives the key from a bundle on (only) the right
// silicon.
func RecoverKey(dev Device, bundle *KeygenBundle) ([32]byte, error) {
	return keygen.Recover(dev, bundle)
}
