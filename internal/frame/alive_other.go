//go:build !(linux || darwin || freebsd || netbsd || openbsd)

package frame

// alive cannot peek here: a connection its peer closed fails its next
// exchange.
func (c *clientConn) alive() bool { return true }
