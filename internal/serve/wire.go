package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// MaxSolveBody bounds a request body that carries one solve instance
// (POST /v1/solve, the cluster's solve and handoff routes, and a stream's
// opening body): 8 MiB fits tens of thousands of devices, and one
// oversized POST cannot exhaust memory.
const MaxSolveBody = 8 << 20

// maxBatchBody bounds the /v1/solve-batch request body: batches amortize
// a round trip over many instances, so they get a proportionally larger
// ceiling.
const maxBatchBody = 64 << 20

// maxPrealloc caps the buffer allocated up front from a declared
// Content-Length, so a client that declares a large body and sends it
// slowly holds memory only as its bytes arrive.
const maxPrealloc = 1 << 20

// ReadJSON reads r's whole body, at most limit bytes, and decodes its
// first JSON value into v, which must point to a zero value. A
// *SolveRequestJSON or *SolveBatchRequestJSON in the canonical form
// encoding/json emits is decoded in one pass over the bytes; every other
// body and type goes through json.Decoder, so its value and error text are
// the standard library's. On failure ReadJSON returns the status to answer
// with: 413 for a body over the limit, else 400 with the error prefixed
// "decoding body: ".
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	b, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err == nil && !decodeCanonical(b, v) {
		err = json.NewDecoder(bytes.NewReader(b)).Decode(v)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, fmt.Errorf("decoding body: %w", err)
	}
	return 0, nil
}

// readBody reads body to its end into one buffer sized from the declared
// length: the spare byte lets the last read see EOF without growing it.
func readBody(body io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 && declared <= limit {
		size = min(declared+1, maxPrealloc)
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeCanonical decodes b into v when v is a solve wire type and b's
// first value is in canonical form, and reports whether it did; on false,
// *v is untouched. Canonical means what encoding/json emits, with any key
// order and whitespace: keys that match a field exactly, each at most
// once; strings without escapes, control or non-ASCII bytes; numbers in
// the JSON grammar that parse in range; no null. Bytes after the first
// value are ignored, as json.Decoder ignores them.
func decodeCanonical(b []byte, v any) bool {
	d := canonical{b: b}
	switch v := v.(type) {
	case *SolveRequestJSON:
		var out SolveRequestJSON
		if d.solveRequest(&out) {
			*v = out
			return true
		}
	case *SolveBatchRequestJSON:
		var out SolveBatchRequestJSON
		if d.solveBatch(&out) {
			*v = out
			return true
		}
	}
	return false
}

// canonical is a one-pass decoder of the solve wire types over a whole
// body. Each method consumes one value at i and reports false, never an
// error, on anything outside the canonical form.
type canonical struct {
	b []byte
	i int
}

var (
	batchKeys   = []string{"requests", "priority"}
	requestKeys = []string{"system", "weights", "mode", "total_deadline_s", "joint_weighted", "solver", "device_id"}
	weightKeys  = []string{"w1", "w2"}
	systemKeys  = []string{"devices", "bandwidth_hz", "n0_w_per_hz", "kappa", "local_iters", "global_rounds"}
	deviceKeys  = []string{"samples", "cycles_per_sample", "upload_bits", "gain", "f_min_hz", "f_max_hz", "p_min_w", "p_max_w"}
)

func (d *canonical) solveBatch(out *SolveBatchRequestJSON) bool {
	return d.object(batchKeys, func(k int) bool {
		if k == 1 {
			return d.str(&out.Priority)
		}
		out.Requests = []SolveRequestJSON{}
		return d.array(func() bool {
			out.Requests = append(out.Requests, SolveRequestJSON{})
			return d.solveRequest(&out.Requests[len(out.Requests)-1])
		})
	})
}

func (d *canonical) solveRequest(out *SolveRequestJSON) bool {
	return d.object(requestKeys, func(k int) bool {
		switch k {
		case 0:
			return d.system(&out.System)
		case 1:
			w := [...]*float64{&out.Weights.W1, &out.Weights.W2}
			return d.object(weightKeys, func(k int) bool { return d.float(w[k]) })
		case 2:
			return d.str(&out.Mode)
		case 3:
			return d.float(&out.TotalDeadlineS)
		case 4:
			return d.boolean(&out.JointWeighted)
		case 5:
			return d.str(&out.Solver)
		default:
			return d.str(&out.DeviceID)
		}
	})
}

func (d *canonical) system(out *SystemJSON) bool {
	f := [...]*float64{nil, &out.BandwidthHz, &out.N0WPerHz, &out.Kappa, &out.LocalIters, &out.GlobalRounds}
	return d.object(systemKeys, func(k int) bool {
		if k > 0 {
			return d.float(f[k])
		}
		out.Devices = make([]DeviceJSON, 0, 16)
		return d.array(func() bool {
			out.Devices = append(out.Devices, DeviceJSON{})
			dev := &out.Devices[len(out.Devices)-1]
			f := [...]*float64{&dev.Samples, &dev.CyclesPerSample, &dev.UploadBits, &dev.Gain, &dev.FMinHz, &dev.FMaxHz, &dev.PMinW, &dev.PMaxW}
			return d.object(deviceKeys, func(k int) bool { return d.float(f[k]) })
		})
	})
}

// object consumes an object whose keys are all in keys, each at most once,
// calling member with the key's index to consume its value.
func (d *canonical) object(keys []string, member func(k int) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.raw()
		if !ok {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !d.eat(':') || !member(k) {
			return false
		}
		seen |= 1 << k
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// array consumes an array, calling elem to consume each element.
func (d *canonical) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.eat(',') {
			return d.eat(']')
		}
	}
}

// eat skips whitespace, then consumes c if it is the next byte.
func (d *canonical) eat(c byte) bool {
	d.ws()
	return d.skip(c)
}

// raw consumes a string and returns its bytes between the quotes.
func (d *canonical) raw() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	b, start := d.b, d.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (d *canonical) str(out *string) bool {
	s, ok := d.raw()
	*out = string(s)
	return ok
}

func (d *canonical) boolean(out *bool) bool {
	switch {
	case d.eat('t'):
		*out = true
		return d.rest("rue")
	case d.eat('f'):
		return d.rest("alse")
	}
	return false
}

// rest consumes the remainder of a literal.
func (d *canonical) rest(lit string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
		return false
	}
	d.i += len(lit)
	return true
}

// float consumes a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it with
// strconv.ParseFloat, as encoding/json does.
func (d *canonical) float(out *float64) bool {
	d.ws()
	start := d.i
	d.skip('-')
	if !d.skip('0') && !d.digits() {
		return false
	}
	if d.skip('.') && !d.digits() {
		return false
	}
	if d.skip('e') || d.skip('E') {
		if !d.skip('+') {
			d.skip('-')
		}
		if !d.digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	*out = f
	return err == nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *canonical) digits() bool {
	b, i := d.b, d.i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	ok := i > d.i
	d.i = i
	return ok
}

// skip consumes c if it is the next byte.
func (d *canonical) skip(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (d *canonical) ws() {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.i = i
}
