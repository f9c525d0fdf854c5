package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

type requestIDCtxKey struct{}

// NewRequestID returns a 16-hex-char random request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed id
		// keeps telemetry non-fatal.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID stamps a request identifier into the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDCtxKey{}, id)
}

// RequestIDFrom returns the context's request id, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDCtxKey{}).(string)
	return id
}
