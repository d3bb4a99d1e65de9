package auth

import (
	"fmt"
	"sync"

	"repro/internal/crp"
	"repro/internal/ecc"
	"repro/internal/errormap"
	"repro/internal/firmware"
	"repro/internal/mapkey"
)

// Device abstracts the client-side PUF hardware. Two implementations
// ship with the repo: FirmwareDevice drives the full simulated SMM
// firmware stack (realistic, slow), SimDevice evaluates directly
// against a measured error map (fast, used by Monte Carlo runs).
type Device interface {
	// Geometry returns the logical error-map layout of the device's
	// cache.
	Geometry() errormap.Geometry
	// Respond answers a logical-coordinate challenge under the shared
	// remap key.
	Respond(ch *crp.Challenge, key mapkey.Key) (crp.Response, error)
	// RespondDefault answers a challenge under the default (identity)
	// mapping; only the key-update flow uses it.
	RespondDefault(ch *crp.Challenge) (crp.Response, error)
}

// Responder is the client-side protocol agent: it owns the device and
// the current remap key, answers challenges, and executes key updates.
type Responder struct {
	ID  ClientID
	dev Device
	key mapkey.Key
}

// NewResponder binds a device to its identity and provisioned key.
func NewResponder(id ClientID, dev Device, key mapkey.Key) *Responder {
	return &Responder{ID: id, dev: dev, key: key}
}

// Key returns the current remap key (tests use this to confirm
// rotation).
func (r *Responder) Key() mapkey.Key { return r.key }

// Respond answers an authentication challenge.
func (r *Responder) Respond(ch *crp.Challenge) (crp.Response, error) {
	return r.dev.Respond(ch, r.key)
}

// HandleRemap executes the client side of the key-update protocol
// (paper Figure 7): measure the response to the reserved-voltage
// challenge under the default mapping, reproduce the server's secret
// through the helper data, and derive the new key. The response never
// leaves the device.
func (r *Responder) HandleRemap(req *RemapRequest) error {
	resp, err := r.dev.RespondDefault(req.Challenge)
	if err != nil {
		return fmt.Errorf("auth: remap measurement failed: %w", err)
	}
	secret, err := ecc.Reproduce(resp.Bits, req.Helper)
	if err != nil {
		return fmt.Errorf("auth: helper data rejected: %w", err)
	}
	strengthened := ecc.StrengthenKey(secret, "remap")
	r.key = mapkey.KeyFromBytes(strengthened[:], "remap/"+string(r.ID))
	return nil
}

// --- Map-backed device -----------------------------------------------------

// SimDevice answers challenges directly from a measured error map. The
// map passed in represents what the silicon does *in the field* — for
// noise studies it differs from the enrolled map. It is safe for
// concurrent use: pipelined wire clients answer many challenges on
// one device at once.
type SimDevice struct {
	fieldMap *errormap.Map

	mu sync.Mutex
	// fieldCache holds, per vdd, the logical distance field under the
	// last key a challenge used there. A field under another key
	// replaces it, so a key update leaves no dead field behind.
	fieldCache map[int]keyedField
	// defaultCache caches identity-mapping fields per vdd.
	defaultCache map[int]*errormap.DistanceField
}

type keyedField struct {
	key   mapkey.Key
	field *errormap.DistanceField
}

// NewSimDevice wraps an as-measured error map.
func NewSimDevice(m *errormap.Map) *SimDevice {
	return &SimDevice{
		fieldMap:     m,
		fieldCache:   make(map[int]keyedField),
		defaultCache: make(map[int]*errormap.DistanceField),
	}
}

// Geometry implements Device.
func (d *SimDevice) Geometry() errormap.Geometry { return d.fieldMap.Geometry() }

func (d *SimDevice) logicalField(key mapkey.Key, vdd int) (*errormap.DistanceField, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if kf, ok := d.fieldCache[vdd]; ok && kf.key == key {
		return kf.field, nil
	}
	phys := d.fieldMap.Plane(vdd)
	if phys == nil {
		return nil, authErrf(CodeBadPlane, "", "%w: device has no plane at %d mV", ErrBadPlane, vdd)
	}
	f := LogicalPlane(phys, key, vdd).DistanceTransform()
	d.fieldCache[vdd] = keyedField{key: key, field: f}
	return f, nil
}

// Respond implements Device. Consecutive bits at the same voltage
// reuse the resolved field without re-taking the cache lock — ordinary
// challenges are single-voltage, so the common case locks once.
func (d *SimDevice) Respond(ch *crp.Challenge, key mapkey.Key) (crp.Response, error) {
	resp := crp.NewResponse(len(ch.Bits))
	var f *errormap.DistanceField
	lastVdd := -1
	for i, b := range ch.Bits {
		if b.VddMV != lastVdd {
			var err error
			f, err = d.logicalField(key, b.VddMV)
			if err != nil {
				return crp.Response{}, err
			}
			lastVdd = b.VddMV
		}
		da, fa := nearDist(f, b.A)
		db, fb := nearDist(f, b.B)
		resp.SetBit(i, crp.ResponseBit(da, fa, db, fb))
	}
	return resp, nil
}

// RespondDefault implements Device.
func (d *SimDevice) RespondDefault(ch *crp.Challenge) (crp.Response, error) {
	resp := crp.NewResponse(len(ch.Bits))
	var f *errormap.DistanceField
	lastVdd := -1
	for i, b := range ch.Bits {
		if b.VddMV != lastVdd {
			var err error
			f, err = d.defaultField(b.VddMV)
			if err != nil {
				return crp.Response{}, err
			}
			lastVdd = b.VddMV
		}
		da, fa := nearDist(f, b.A)
		db, fb := nearDist(f, b.B)
		resp.SetBit(i, crp.ResponseBit(da, fa, db, fb))
	}
	return resp, nil
}

func (d *SimDevice) defaultField(vdd int) (*errormap.DistanceField, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.defaultCache[vdd]; ok {
		return f, nil
	}
	phys := d.fieldMap.Plane(vdd)
	if phys == nil {
		return nil, authErrf(CodeBadPlane, "", "%w: device has no plane at %d mV", ErrBadPlane, vdd)
	}
	f := phys.DistanceTransform()
	d.defaultCache[vdd] = f
	return f, nil
}

var _ Device = (*SimDevice)(nil)

// --- Firmware-backed device --------------------------------------------------

// FirmwareDevice drives the full simulated prototype stack: SMM entry,
// voltage control, targeted self-tests.
type FirmwareDevice struct {
	Client *firmware.Client
}

// Geometry implements Device.
func (d *FirmwareDevice) Geometry() errormap.Geometry { return d.Client.Geometry() }

// Respond implements Device.
func (d *FirmwareDevice) Respond(ch *crp.Challenge, key mapkey.Key) (crp.Response, error) {
	lines := d.Client.Geometry().Lines
	return d.Client.AuthenticateMapped(ch, func(vddMV int) firmware.Unmapper {
		perm := mapkey.NewPermutation(mapkey.PlaneKey(key, vddMV), lines)
		return perm.Unmap
	})
}

// RespondDefault implements Device.
func (d *FirmwareDevice) RespondDefault(ch *crp.Challenge) (crp.Response, error) {
	return d.Client.Authenticate(ch)
}

var _ Device = (*FirmwareDevice)(nil)
