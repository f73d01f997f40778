package server

import "log/slog"

// logger returns the site's structured logger, falling back to the
// process default so zero-configured Sites still log somewhere useful.
func (s *Site) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}
