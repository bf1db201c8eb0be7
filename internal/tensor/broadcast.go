package tensor

import "fmt"

// BroadcastShapes computes the NumPy-style broadcast of two shapes.
// Dimensions are aligned from the right; a dimension broadcasts against an
// equal dimension or against 1.
func BroadcastShapes(a, b Shape) (Shape, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Shape, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i < len(a) {
			da = a[len(a)-1-i]
		}
		if i < len(b) {
			db = b[len(b)-1-i]
		}
		switch {
		case da == db:
			out[n-1-i] = da
		case da == 1:
			out[n-1-i] = db
		case db == 1:
			out[n-1-i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast %v with %v", a, b)
		}
	}
	return out, nil
}

// BroadcastAll folds BroadcastShapes over a list of shapes.
func BroadcastAll(shapes ...Shape) (Shape, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("tensor: no shapes to broadcast")
	}
	out := shapes[0].Clone()
	for _, s := range shapes[1:] {
		var err error
		out, err = BroadcastShapes(out, s)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// IsBroadcastExpansion reports whether mapping from into out requires actual
// expansion (i.e. from has fewer elements than out under broadcasting). This
// is what distinguishes a One-to-One elementwise op from its One-to-Many
// broadcast variant in the paper's classification.
func IsBroadcastExpansion(from, out Shape) bool {
	return from.NumElements() < out.NumElements()
}

// BroadcastIndex maps an index into the broadcast output shape back to an
// index into the (possibly lower-rank or size-1) input shape `in`, writing
// into dst and returning it. dst must have len(in) capacity.
func BroadcastIndex(outIdx []int, in Shape, dst []int) []int {
	dst = dst[:len(in)]
	offset := len(outIdx) - len(in)
	for i := range in {
		v := outIdx[offset+i]
		if in[i] == 1 {
			v = 0
		}
		dst[i] = v
	}
	return dst
}
