(* The block-cache frontend (DESIGN.md §13): per-thread LIFO caches in
   front of the paper's allocator, refilled by batched credit
   reservation and drained by batched flushes.

   What is verified here:
   - batch accounting: hits/misses/refills/flushes relate to the
     operation stream exactly as the design says;
   - the disabled frontend is a bit-identical passthrough — same seeded
     simulation, same address trace as the bare allocator;
   - remote frees never enter a local cache; they are buffered and
     pushed back in batches of [cache_batch];
   - the explorer's address-exclusivity oracle holds with the cache on;
   - killing a thread inside any batched bc.* CAS window leaks its
     blocks but never lets them be allocated twice. *)

open Mm_runtime
module A = Mm_core.Lf_alloc.Make (Sim_rt)
module Bc = Mm_core.Block_cache.Make (Sim_rt)
module L = Mm_core.Labels
module Cfg = Mm_mem.Alloc_config
module O = Mm_check.Oracle
module E = Mm_check.Explore
module T = Mm_check.Target
open Util

let cached_cfg =
  Cfg.make ~nheaps:1 ~sbsize:4096 ~maxcredits:8 ~desc_scan_threshold:1
    ~cache:true ~cache_blocks:4 ~cache_batch:2 ()

(* Single-thread accounting: every stats field is determined by the
   operation stream and the cache geometry, independent of scheduling. *)
let batch_accounting () =
  let s = sim ~cpus:1 () in
  let rt = s in
  let t = Bc.create rt cached_cfg in
  let body _ =
    let n = 6 in
    let addrs = Array.init n (fun _ -> Bc.malloc t 8) in
    let distinct = Hashtbl.create n in
    Array.iter
      (fun a ->
        if Hashtbl.mem distinct a then
          Alcotest.failf "address %d handed out twice" a;
        Hashtbl.add distinct a ())
      addrs;
    let s1 = Bc.stats t in
    Alcotest.(check int) "hits+misses = mallocs" n
      (s1.Bc.hits + s1.Bc.misses);
    Alcotest.(check bool) "at least one batched refill" true
      (s1.Bc.refills >= 1);
    (* Every refill hands one block to the caller and caches the rest;
       cached leftovers are whatever hits have not yet consumed. *)
    Alcotest.(check int) "refilled = refills + hits + still cached"
      s1.Bc.refilled_blocks
      (s1.Bc.refills + s1.Bc.hits + Bc.cached_blocks t);
    Alcotest.(check int) "no flush before any free" 0 s1.Bc.flushes;
    Array.iter (Bc.free t) addrs;
    let s2 = Bc.stats t in
    (* Before flush_current every flush is an overflow or remote-batch
       flush, both exactly cache_batch blocks. *)
    Alcotest.(check int) "flushes are batch-sized"
      (s2.Bc.flushes * cached_cfg.Cfg.cache_batch)
      s2.Bc.flushed_blocks;
    Alcotest.(check bool) "overflow flush fired" true (s2.Bc.flushes >= 1);
    Alcotest.(check bool) "cache bounded" true
      (Bc.cached_blocks t
      <= Sim_rt.max_threads * cached_cfg.Cfg.cache_blocks);
    Bc.flush_current t;
    Alcotest.(check int) "flush_current drains the cache" 0
      (Bc.cached_blocks t);
    let m, f = Bc.op_counts t in
    Alcotest.(check int) "frontend conservation" m f;
    Bc.check_invariants t
  in
  ignore (Sim.run s [| body |])

(* The same seeded simulation through the bare allocator and through a
   cache-disabled frontend must produce the same address trace: the
   default configuration is the verbatim paper allocator. *)
let trace_workload mk =
  let s = sim ~cpus:4 ~seed:7 () in
  let rt = s in
  let malloc, free = mk rt in
  let logs = Array.init 4 (fun _ -> ref []) in
  let body tid =
    let rng = Prng.create (tid + 5) in
    let live = Queue.create () in
    for _ = 1 to 60 do
      if Queue.length live > 0 && Prng.int rng 3 = 0 then
        free (Queue.pop live)
      else begin
        let a = malloc (Prng.int_in rng 1 200) in
        logs.(tid) := a :: !(logs.(tid));
        Queue.push a live
      end
    done;
    Queue.iter free live
  in
  ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
  Array.to_list (Array.map (fun r -> List.rev !r) logs)

let disabled_is_passthrough () =
  let cfg = Cfg.make ~nheaps:2 () in
  let bare =
    trace_workload (fun rt ->
        let t = A.create rt cfg in
        (A.malloc t, A.free t))
  in
  let fronted =
    trace_workload (fun rt ->
        let t = Bc.create rt cfg in
        (Bc.malloc t, Bc.free t))
  in
  Alcotest.(check (list (list int)))
    "cache:false trace is bit-identical to the bare allocator" bare fronted

(* Remote frees: with two processor heaps, thread 1 freeing thread 0's
   blocks must route them through the remote buffer (never its local
   cache) and push them back in exact batches. *)
let remote_free_batching () =
  let cfg =
    Cfg.make ~nheaps:2 ~sbsize:4096 ~maxcredits:8 ~desc_scan_threshold:1
      ~cache:true ~cache_blocks:4 ~cache_batch:2 ()
  in
  let s = sim ~cpus:2 () in
  let rt = s in
  let t = Bc.create rt cfg in
  let blocks = Array.make 4 0 in
  let ready = ref false in
  let producer _ =
    for i = 0 to 3 do
      blocks.(i) <- Bc.malloc t 8
    done;
    ready := true
  in
  let consumer _ =
    while not !ready do
      Sim_rt.yield rt
    done;
    Array.iter (Bc.free t) blocks
  in
  ignore (Sim.run s [| (fun _ -> producer 0); (fun _ -> consumer 1) |]);
  let st = Bc.stats t in
  Alcotest.(check int) "all four frees were remote" 4 st.Bc.remote_frees;
  Alcotest.(check int) "two batch flushes of two" 2 st.Bc.flushes;
  Alcotest.(check int) "flushed in exact batches" 4 st.Bc.flushed_blocks;
  Bc.check_invariants t

(* Schedule exploration with the oracle from lib/check: bounded
   exhaustive over the cached target (the quick gate runs a bigger
   budget; this is the in-tree regression). *)
let explorer_exclusivity () =
  let target = T.lf_alloc_cached in
  let r = E.exhaustive target ~threads:2 ~bound:2 ~budget:5_000 in
  match r.E.finding with
  | None -> ()
  | Some f -> Alcotest.failf "cached allocator violation: %s" f.E.error

(* One burst of [n] mallocs by thread [tid], each block freed once. *)
let local_round ~m ~f _tid n = Array.iter f (Array.init n (fun _ -> m ()))

(* With two heaps, thread [tid] (heap [tid mod 2]) mails its burst to
   thread [tid + 1 mod 4], on the other heap, and frees what it was
   mailed: every free is remote and leaves through the remote buffer's
   flush. Plain list operations between simulation points are atomic
   under the scheduler; blocks still in a mailbox at the end stay
   allocated. *)
let remote_round mail ~m ~f tid n =
  let burst = List.init n (fun _ -> m ()) in
  let next = (tid + 1) mod 4 in
  mail.(next) <- burst @ mail.(next);
  let mine = mail.(tid) in
  mail.(tid) <- [];
  List.iter f mine

let remote_cfg =
  Cfg.make ~nheaps:2 ~sbsize:4096 ~maxcredits:8 ~desc_scan_threshold:1
    ~cache:true ~cache_blocks:4 ~cache_batch:2 ()

(* Kill a thread inside each batched CAS window. Its reserved or cached
   blocks leak, but the exclusivity oracle proves no survivor — nor a
   fresh wave afterwards on all four thread ids, the killed one's stale
   cache included — is ever handed one of them. *)
let kill_in_window ~cfg ~round label () =
  let killed = ref (-1) in
  let on_label ~tid l =
    if l = label && !killed = -1 then begin
      killed := tid;
      Sim.Kill
    end
    else Sim.Continue
  in
  let s = sim ~cpus:4 ~max_cycles:50_000_000_000 ~on_label () in
  let rt = s in
  let t = Bc.create rt cfg in
  let orc = O.create_alloc () in
  let m () =
    let a = Bc.malloc t 8 in
    O.malloc_returned orc a;
    a
  in
  let f a =
    let p = O.free_invoked orc a in
    Bc.free t a;
    O.free_returned orc p
  in
  let body tid =
    for _ = 1 to 2 do
      round ~m ~f tid 30
    done
  in
  (try ignore (Sim.run s (Array.init 4 (fun _ -> body)))
   with O.Violation msg -> Alcotest.failf "exclusivity violated: %s" msg);
  Alcotest.(check bool) ("kill fired: " ^ label) true (!killed >= 0);
  (* Fresh wave on the same heap: the killed thread's blocks must stay
     leaked — the oracle still holds them and would reject a re-issue. *)
  try ignore (Sim.run s (Array.init 4 (fun _ tid -> round ~m ~f tid 100)))
  with O.Violation msg ->
    Alcotest.failf "leaked block re-allocated after kill: %s" msg

let bc_labels = [ L.bc_reserve_cas; L.bc_pop_cas; L.bc_flush_cas ]

let cases =
  [
    case "batched refill/flush accounting" batch_accounting;
    case "cache:false is a bit-identical passthrough" disabled_is_passthrough;
    case "remote frees flushed in exact batches" remote_free_batching;
    case "explorer: exclusivity with cache enabled" explorer_exclusivity;
  ]
  @ List.map
      (fun l ->
        case
          ("kill inside " ^ l ^ " never double-allocates")
          (kill_in_window ~cfg:cached_cfg ~round:local_round l))
      bc_labels
  @ [
      case "kill inside a remote flush never double-allocates"
        (kill_in_window ~cfg:remote_cfg
           ~round:(remote_round (Array.make 4 []))
           L.bc_flush_cas);
    ]
