type t = Raw_primitive | Blocking_in_lockfree | Label_registry | Sim_capability

let all = [ Raw_primitive; Blocking_in_lockfree; Label_registry; Sim_capability ]

let name = function
  | Raw_primitive -> "raw-primitive"
  | Blocking_in_lockfree -> "blocking-in-lockfree"
  | Label_registry -> "label-registry"
  | Sim_capability -> "sim-capability"

let of_name s = List.find_opt (fun r -> name r = s) all

let describe = function
  | Raw_primitive ->
      "no Stdlib.Atomic, Domain, Mutex or Condition outside the real \
       runtime backend (lib/runtime/real_rt.ml and rt_base.ml); \
       everything else — baselines included — is functorized over \
       RUNTIME so it runs under both the real and the simulated runtime"
  | Blocking_in_lockfree ->
      "no Locks.* reachable from lib/core, lib/lockfree or lib/mem: \
       lock-freedom holds by construction"
  | Label_registry ->
      "every Rt.label string comes from Labels.all / Lf_labels.all; \
       registry entries are unique, listed in [all], and used"
  | Sim_capability ->
      "simulator-only control facilities (controlled schedules, label \
       interception, kill/stall exploration) may only be referenced \
       outside lib/runtime and lib/check in items that consult the \
       Rt.controllable capability flag, so every runtime backend keeps \
       the same observable surface (ROADMAP item 4)"
