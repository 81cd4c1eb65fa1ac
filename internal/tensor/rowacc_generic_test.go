//go:build !amd64 || race

package tensor

// rowAccPaths names the one rowAccPacked path here: the Go loop itself.
func rowAccPaths() []string { return []string{"go"} }

func usePath(string) (restore func()) { return func() {} }
