package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xmlsec/internal/core"
)

// LoadSiteDir builds a Site from a configuration directory:
//
//	dtds/<name>      — DTD files, registered under URI <name>
//	docs/<name>      — XML documents, registered under URI <name>
//	xacl/<name>.xml  — XACL files (their about/level attributes bind them)
//	groups.conf      — lines "group[:parent,parent...]"
//	users.conf       — lines "user:password[:group,group...]"
//	resolver.conf    — lines "ip host" for the static resolver
//	policy.conf      — lines "uri conflict-rule [open]"
//
// Blank lines and lines starting with '#' are ignored in .conf files.
// DTDs load before documents (documents reference them), and XACLs
// last (they may reference either).
func LoadSiteDir(dir string) (*Site, error) {
	site := NewSite()
	if err := loadConf(filepath.Join(dir, "groups.conf"), func(line string) error {
		name, parents, _ := strings.Cut(line, ":")
		return site.Directory.AddGroup(strings.TrimSpace(name), splitList(parents)...)
	}); err != nil {
		return nil, err
	}
	if err := loadConf(filepath.Join(dir, "users.conf"), func(line string) error {
		parts := strings.SplitN(line, ":", 3)
		if len(parts) < 2 {
			return fmt.Errorf("want user:password[:groups]")
		}
		user := strings.TrimSpace(parts[0])
		groups := ""
		if len(parts) == 3 {
			groups = parts[2]
		}
		if err := site.Directory.AddUser(user, splitList(groups)...); err != nil {
			return err
		}
		return site.Users.Set(user, parts[1])
	}); err != nil {
		return nil, err
	}
	if err := loadConf(filepath.Join(dir, "resolver.conf"), func(line string) error {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("want: ip host")
		}
		res, ok := site.Resolver.(*StaticResolver)
		if !ok {
			return fmt.Errorf("resolver.conf requires the static resolver")
		}
		res.Add(fields[0], fields[1])
		return nil
	}); err != nil {
		return nil, err
	}
	if err := loadConf(filepath.Join(dir, "policy.conf"), func(line string) error {
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return fmt.Errorf("want: uri conflict-rule [open]")
		}
		rule, err := core.ParseConflictRule(fields[1])
		if err != nil {
			return err
		}
		pol := core.Policy{Conflict: rule}
		if len(fields) == 3 {
			switch fields[2] {
			case "open":
				pol.Open = true
			case "closed":
			default:
				return fmt.Errorf("want open or closed, got %q", fields[2])
			}
		}
		return site.SetPolicy(fields[0], pol)
	}); err != nil {
		return nil, err
	}
	if err := loadFiles(filepath.Join(dir, "dtds"), func(name, src string) error {
		return site.Docs.AddDTD(name, src)
	}); err != nil {
		return nil, err
	}
	docsDir := filepath.Join(dir, "docs")
	names, srcs, readErr := readFiles(docsDir)
	if i, err := site.Docs.addDocuments(names, srcs); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", docsDir, names[i], err)
	}
	if readErr != nil {
		return nil, readErr
	}
	if err := loadFiles(filepath.Join(dir, "xacl"), func(name, src string) error {
		_, err := site.LoadXACL(src)
		return err
	}); err != nil {
		return nil, err
	}
	return site, nil
}

// loadConf applies fn to each meaningful line of an optional file.
func loadConf(path string, fn func(line string) error) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
	}
	return nil
}

// loadFiles applies fn to every regular file under an optional
// directory, keyed by its path relative to the directory, in sorted
// order for determinism.
func loadFiles(dir string, fn func(name, src string) error) error {
	names, srcs, readErr := readFiles(dir)
	for i, name := range names {
		if err := fn(name, srcs[i]); err != nil {
			return fmt.Errorf("%s/%s: %w", dir, name, err)
		}
	}
	return readErr
}

// readFiles reads every regular file under an optional directory, in
// sorted order of its path relative to the directory. On a read error
// it returns the files before the failing one along with the error, so
// a caller that applies them first reports errors in the order a
// file-at-a-time load would.
func readFiles(dir string) (names, srcs []string, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	for i, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(name)))
		if err != nil {
			return names[:i], srcs, err
		}
		srcs = append(srcs, string(b))
	}
	return names, srcs, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
