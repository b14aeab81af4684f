//go:build linux || darwin || freebsd || netbsd || openbsd

package frame

import "syscall"

// alive reports whether an idle connection can carry another exchange:
// one non-blocking peek finds neither the peer's close nor stray bytes.
func (c *clientConn) alive() bool {
	ok := c.raw == nil
	if !ok {
		c.raw.Read(func(fd uintptr) bool { //nolint:errcheck // a closed connection leaves ok false
			var b [1]byte
			_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			ok = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
			return true
		})
	}
	return ok
}
