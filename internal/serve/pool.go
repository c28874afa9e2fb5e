package serve

import (
	"bytes"
	"sync"
)

// bodyPool recycles the embed handler's body buffers: the request body is
// read into one, and once it is decoded the response is appended into the
// same buffer.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
