"""dlb contract analyzer: the one static gate for the repo's determinism,
persistence, and concurrency contracts.

  atomic-write   file-creating writes must flow through util/tempfile's
                 temp+rename protocol (call-graph reachability to
                 temp_path_for from the enclosing function)
  sync-wrapper   no raw std:: synchronization primitives outside
                 util/sync.hpp, and every dlb::mutex data member must have a
                 DLB_GUARDED_BY field association
  rng-contract   no xoshiro construction, splitmix64 calls, stream-
                 derivation constants, rand()/srand()/time()/clock() calls
                 or std::random_device outside util/rng.hpp's dispatch
                 surface
  nondet-reduce  no floating-point accumulation into by-reference captured
                 scalars inside lambdas handed to parallel_for/parallel_tasks
                 (use executor::parallel_reduce's ordered combine)
  clock          no steady/system/high_resolution_clock, clock_gettime or
                 gettimeofday outside util/timer.hpp (everything else reads
                 now_ns())
  unordered      no std::unordered_{map,set,multimap,multiset}: hash
                 iteration order can order a report, merge or aggregation
  ptr-key        no std::map/std::set keyed on a pointer type: iteration
                 order is allocation order

A finding is waived only by `// dlb-analyzer: allow(<rule>) <reason>` on its
line or the line above (an empty reason is itself a finding), or by a
reasoned entry in baseline.txt.

Two interchangeable frontends produce the same facts model:

  frontend_clang  libclang (Python clang.cindex, pinned in CI) driven by
                  compile_commands.json — the authoritative AST walk
  frontend_lite   dependency-free structural parser (tokens + brace tree +
                  function spans) so the gate also runs where libclang is
                  not installed; ctest uses --frontend auto

Run `python3 tools/dlb_analyzer --help` for the CLI.
"""
