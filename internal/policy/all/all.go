// Package all registers every built-in cache policy with the registry
// by importing each policy package for its init-time policy.Register
// call. Drivers blank-import it once:
//
//	import _ "videocdn/internal/policy/all"
//
// Adding a policy to the repository is: write the package, give it a
// register.go with one policy.Register call, and add its import here.
package all

import (
	_ "videocdn/internal/admission"
	_ "videocdn/internal/belady"
	_ "videocdn/internal/cafe"
	_ "videocdn/internal/gdsp"
	_ "videocdn/internal/lruk"
	_ "videocdn/internal/lruq"
	_ "videocdn/internal/psychic"
	_ "videocdn/internal/xlru"
)
