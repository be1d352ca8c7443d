(* The three allocator modes a user can pick today, each built exactly
   as [Mm_harness.Allocators.make] builds "new", "new-cached" and
   "new-ob" on the real runtime, but keeping the typed functor-level
   handle for introspection (retry census, block-cache stats, space
   meters) that the runtime-erased instance hides. *)

module Rt = Mm_runtime.Real_rt
module Cfg = Mm_mem.Alloc_config
module I = Mm_mem.Alloc_intf
module Lf = Mm_core.Lf_alloc.Make (Rt)
module Bc = Mm_core.Block_cache.Make (Rt)
module Store = Mm_mem.Store.Make (Rt)
module Space = Mm_mem.Space.Make (Rt)

let names = [| "new"; "cached"; "ob" |]

(* The retry-census sites the benchmark reports per mode. *)
let cas_sites =
  [
    "active.reserve";
    "anchor.pop";
    "anchor.free";
    "update_active";
    "partial.slot";
    "pub.push";
    "pub.claim";
  ]

type t = {
  name : string;
  inst : I.instance;
  lf : Lf.t;  (** the paper allocator (the backend, for "cached") *)
  bc : Bc.t option;
}

let create name =
  let cfg = Cfg.default and vrt = Mm_runtime.Rt.real in
  match name with
  | "new" ->
      let lf = Lf.create () cfg in
      { name; inst = Lf.instance vrt lf; lf; bc = None }
  | "cached" ->
      let bc = Bc.create () { cfg with Cfg.cache = true } in
      { name; inst = Bc.instance vrt bc; lf = Bc.backend bc; bc = Some bc }
  | "ob" ->
      let lf = Lf.create () { cfg with Cfg.free_lists = `Owner_biased } in
      { name; inst = Lf.instance vrt lf; lf; bc = None }
  | other -> invalid_arg ("Modes.create: " ^ other)

let reset_peaks m = Space.reset_peaks (Store.space (Lf.store m.lf))
let mapped_peak m = (I.instance_space m.inst).Mm_mem.Space.mapped_peak

(* Counters read quiescently at the edges of a measured window. *)
type counters = {
  mmaps : int;
  munmaps : int;
  retries : (string * int) list;
  hits : int;
  misses : int;
  flushes : int;
  remote : int;
}

let counters m =
  let os = I.instance_os_stats m.inst in
  let hits, misses, flushes, remote =
    match m.bc with
    | None -> (0, 0, 0, 0)
    | Some bc ->
        let s = Bc.stats bc in
        Bc.(s.hits, s.misses, s.flushes, s.remote_frees)
  in
  {
    mmaps = os.Mm_mem.Store.mmap_calls;
    munmaps = os.munmap_calls;
    retries = Lf.retry_counts m.lf;
    hits;
    misses;
    flushes;
    remote;
  }

(* [b - a], field by field. *)
let diff a b =
  {
    mmaps = b.mmaps - a.mmaps;
    munmaps = b.munmaps - a.munmaps;
    retries =
      List.map (fun (s, n) -> (s, n - List.assoc s a.retries)) b.retries;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    flushes = b.flushes - a.flushes;
    remote = b.remote - a.remote;
  }

let add a b =
  {
    mmaps = a.mmaps + b.mmaps;
    munmaps = a.munmaps + b.munmaps;
    retries = List.map2 (fun (s, x) (_, y) -> (s, x + y)) a.retries b.retries;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    flushes = a.flushes + b.flushes;
    remote = a.remote + b.remote;
  }

(* A planted fault for the benchmark's self-test: every 97th malloc on
   a domain hands out that domain's previous block again while its
   first holder still owns it, and the next free of the duplicated
   address is swallowed so the heap itself stays consistent. Only the
   benchmark's stamp oracle can notice. *)
let faulty (inst : I.instance) =
  let n = Array.make Rt.max_threads 0
  and last = Array.make Rt.max_threads 0
  and dup = Array.make Rt.max_threads 0 in
  {
    inst with
    I.malloc =
      (fun sz ->
        let d = Rt.self () in
        n.(d) <- n.(d) + 1;
        if n.(d) mod 97 = 0 && last.(d) <> 0 && dup.(d) = 0 then begin
          dup.(d) <- last.(d);
          last.(d)
        end
        else begin
          let a = inst.malloc sz in
          last.(d) <- a;
          a
        end);
    free =
      (fun a ->
        (* The duplicate may come back on either domain. *)
        if a <> 0 && a = dup.(0) then dup.(0) <- 0
        else if a <> 0 && a = dup.(1) then dup.(1) <- 0
        else inst.free a);
  }
