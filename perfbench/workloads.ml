(* The three workloads, the correctness oracle they share, and the
   closed-loop phase runner.

   Load is a closed loop: each domain issues its next malloc or free
   when the previous one returns. A workload only ever calls the
   allocator's malloc/free (through the runtime-erased instance, as a
   user does); everything else here is the oracle and bookkeeping.

   Oracle: every block's first payload word is stamped with
   (domain, sequence number) right after malloc and verified right
   before free. A block handed out twice is overwritten by its second
   holder, so the first holder's verification fails. *)

module I = Mm_mem.Alloc_intf
module Prng = Mm_runtime.Prng

(* --- Per-domain context ------------------------------------------ *)

type ctx = {
  d : int;
  mutable inst : I.instance;
  mutable mode : int;
  mutable traced : bool;
  mutable seq : int;
  mutable ops : int;  (** malloc/free calls issued, timed or not *)
  mutable failed : int;
  spans : Spans.t;
}

let ctx ~nmodes ~keep d inst =
  {
    d;
    inst;
    mode = 0;
    traced = false;
    seq = 1;
    ops = 0;
    failed = 0;
    spans = Spans.create ~nmodes ~keep d;
  }

let malloc c sz =
  c.ops <- c.ops + 1;
  if c.traced then begin
    let t0 = Util.now_ns () in
    let a = c.inst.malloc sz in
    let t1 = Util.now_ns () in
    Spans.record c.spans ~mode:c.mode ~kind:Spans.malloc ~id:c.ops t0 t1;
    a
  end
  else c.inst.malloc sz

let free c a =
  c.ops <- c.ops + 1;
  if c.traced then begin
    let t0 = Util.now_ns () in
    c.inst.free a;
    let t1 = Util.now_ns () in
    Spans.record c.spans ~mode:c.mode ~kind:Spans.free ~id:c.ops t0 t1
  end
  else c.inst.free a

let stamp c a =
  let s = (c.d lsl 56) lor c.seq in
  c.seq <- c.seq + 1;
  c.inst.write_word a s;
  s

let verify c a s = if c.inst.read_word a <> s then c.failed <- c.failed + 1

(* An exception escaping the allocator is a failed op. The workload
   state may then be inconsistent; later mismatches count too, and the
   run reports [correct = false] either way. *)
let guard c f = try f () with _ -> c.failed <- c.failed + 1

(* --- Workloads ----------------------------------------------------- *)

(* One domain's share of a workload. [step] issues a short burst of
   calls and returns how many (0 when it can only wait); [finish] runs
   after the deadline, untimed, until the domain may stop; [cleanup]
   frees every block the domain still holds. *)
type t = {
  init : unit -> unit;
  step : unit -> int;
  finish : unit -> unit;
  cleanup : unit -> unit;
}

let names = [ "threadtest"; "larson"; "exchange" ]

(* Inputs per domain, derived from the seed only. *)
type inputs =
  | Threadtest of int array  (** blocks per round *)
  | Larson of int array array  (** per step: slot lor (size lsl 10) *)
  | Exchange of int array array  (** block sizes, cycled *)

let larson_slots = 1024
let larson_sizes = [| 16; 32; 48; 64; 80 |]
let exchange_sizes = [| 16; 32; 48; 64 |]
let exchange_batch = 32
let ring_cap = 16
let max_domains = 2

let inputs name ~seed =
  let root = Prng.create seed in
  let per_domain f = Array.init max_domains (fun _ -> f (Prng.split root)) in
  match name with
  | "threadtest" ->
      (* Tens of thousands of 8-byte blocks: ~30 superblocks a round. *)
      Threadtest (per_domain (fun r -> 30_000 + Prng.int r 2048))
  | "larson" ->
      let nsz = Array.length larson_sizes in
      Larson
        (per_domain (fun r ->
             Array.init (1 lsl 16) (fun _ ->
                 let slot = Prng.int r larson_slots in
                 slot lor (larson_sizes.(Prng.int r nsz) lsl 10))))
  | "exchange" ->
      let nsz = Array.length exchange_sizes in
      Exchange
        (per_domain (fun r ->
             Array.init 4096 (fun _ -> exchange_sizes.(Prng.int r nsz))))
  | other -> invalid_arg ("unknown workload " ^ other)

(* Paper §4.1 Threadtest: malloc [n] blocks, free them in allocation
   order, repeat. Every round creates and empties superblocks. *)
let threadtest c n =
  let addrs = Array.make n 0 and stamps = Array.make n 0 in
  let i = ref 0 and freeing = ref false in
  let step () =
    for _ = 1 to 64 do
      let j = !i in
      if !freeing then begin
        verify c addrs.(j) stamps.(j);
        free c addrs.(j)
      end
      else begin
        let a = malloc c 8 in
        addrs.(j) <- a;
        stamps.(j) <- stamp c a
      end;
      if j + 1 = n then begin
        i := 0;
        freeing := not !freeing
      end
      else i := j + 1
    done;
    64
  in
  let cleanup () =
    let lo, hi = if !freeing then (!i, n) else (0, !i) in
    for j = lo to hi - 1 do
      verify c addrs.(j) stamps.(j);
      free c addrs.(j)
    done;
    i := 0;
    freeing := false
  in
  { init = ignore; step; finish = ignore; cleanup }

(* Paper §4.1 Larson server: a fixed set of live blocks, one random
   slot replaced per step. After the fill no superblock is created. *)
let larson c inp =
  let addrs = Array.make larson_slots 0 and stamps = Array.make larson_slots 0 in
  let pos = ref 0 and mask = Array.length inp - 1 in
  let init () =
    pos := 0;
    for s = 0 to larson_slots - 1 do
      let a = malloc c larson_sizes.(s mod Array.length larson_sizes) in
      addrs.(s) <- a;
      stamps.(s) <- stamp c a
    done
  in
  let step () =
    for _ = 1 to 32 do
      let x = inp.(!pos) in
      pos := (!pos + 1) land mask;
      let s = x land (larson_slots - 1) in
      verify c addrs.(s) stamps.(s);
      free c addrs.(s);
      let a = malloc c (x lsr 10) in
      addrs.(s) <- a;
      stamps.(s) <- stamp c a
    done;
    64
  in
  let cleanup () =
    for s = 0 to larson_slots - 1 do
      verify c addrs.(s) stamps.(s);
      free c addrs.(s);
      addrs.(s) <- 0
    done
  in
  { init; step; finish = ignore; cleanup }

(* A single-producer single-consumer mailbox of batches, each slot a
   preallocated batch buffer. *)
type ring = {
  addrs : int array array;
  stamps : int array array;
  head : int Atomic.t;
  tail : int Atomic.t;
}

let ring () =
  {
    addrs = Array.init ring_cap (fun _ -> Array.make exchange_batch 0);
    stamps = Array.init ring_cap (fun _ -> Array.make exchange_batch 0);
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

(* Producer-consumer sharing: malloc a batch, hand it to the partner
   domain, free the batches the partner hands over. Every free is
   remote. On one domain the partner is the domain itself. *)
let exchange c sizes ~inbox ~outbox ~stopped ~partner =
  let pos = ref 0 and mask = Array.length sizes - 1 in
  let consume () =
    let h = Atomic.get inbox.head in
    if h = Atomic.get inbox.tail then 0
    else begin
      let k = h land (ring_cap - 1) in
      let a = inbox.addrs.(k) and s = inbox.stamps.(k) in
      (* Advance even if a free raises, so draining always ends. *)
      Fun.protect
        ~finally:(fun () -> Atomic.set inbox.head (h + 1))
        (fun () ->
          for j = 0 to exchange_batch - 1 do
            verify c a.(j) s.(j);
            free c a.(j)
          done);
      exchange_batch
    end
  in
  let produce () =
    let t = Atomic.get outbox.tail in
    if t - Atomic.get outbox.head = ring_cap then 0
    else begin
      let k = t land (ring_cap - 1) in
      let a = outbox.addrs.(k) and s = outbox.stamps.(k) in
      for j = 0 to exchange_batch - 1 do
        let b = malloc c sizes.(!pos) in
        pos := (!pos + 1) land mask;
        a.(j) <- b;
        s.(j) <- stamp c b
      done;
      Atomic.set outbox.tail (t + 1);
      exchange_batch
    end
  in
  let init () =
    pos := 0;
    Atomic.set stopped.(c.d) false
  in
  let step () =
    match consume () with
    | 0 -> (
        match produce () with
        | 0 ->
            Domain.cpu_relax ();
            0
        | n -> n)
    | n -> n
  in
  let finish () =
    Atomic.set stopped.(c.d) true;
    while
      not
        (Atomic.get stopped.(partner)
        && Atomic.get inbox.head = Atomic.get inbox.tail)
    do
      if consume () = 0 then Domain.cpu_relax ()
    done
  in
  { init; step; finish; cleanup = ignore }

let make inputs (ctxs : ctx array) ~ndom =
  match inputs with
  | Threadtest ns -> Array.init ndom (fun d -> threadtest ctxs.(d) ns.(d))
  | Larson inp -> Array.init ndom (fun d -> larson ctxs.(d) inp.(d))
  | Exchange sizes ->
      let rings = Array.init ndom (fun _ -> ring ())
      and stopped = Array.init ndom (fun _ -> Atomic.make false) in
      Array.init ndom (fun d ->
          let p = (d + 1) mod ndom in
          exchange ctxs.(d) sizes.(d) ~outbox:rings.(d) ~inbox:rings.(p)
            ~stopped ~partner:p)

(* --- Closed-loop phase runner -------------------------------------- *)

(* Latency samples are means over batches of at least [batch] calls. *)
let batch = 64
let floor_iters = 300_000
let lat_cap = 1 lsl 18

type runner = {
  ndom : int;
  ctxs : ctx array;
  wls : t array;
  bar : Util.barrier;
  timed_ops : int array;  (** per domain, last phase *)
  elapsed_ns : int array;
  lat : float array array;  (** per domain batch means, ns per call *)
  nlat : int array;
  mutable before : Modes.counters option;
  mutable window : Modes.counters option;
      (** counter deltas over the last phase's timed window and drain *)
  mutable ops0 : int;
  mutable window_ops : int;
  floors : float array;  (** per domain, before and after the window *)
}

let runner inputs ctxs ~ndom =
  {
    ndom;
    ctxs;
    wls = make inputs ctxs ~ndom;
    bar = Util.barrier ndom;
    timed_ops = Array.make ndom 0;
    elapsed_ns = Array.make ndom 0;
    lat = Array.init ndom (fun _ -> Array.make lat_cap 0.0);
    nlat = Array.make ndom 0;
    before = None;
    window = None;
    ops0 = 0;
    window_ops = 0;
    floors = Array.make (2 * ndom) 0.0;
  }

let issued r = Array.fold_left (fun a c -> a + c.ops) 0 r.ctxs

(* One phase: every domain fills, then runs closed-loop until the
   deadline or [max_ops] timed calls, then drains and frees all it
   holds. Domain 0 snapshots the mode's counters at both edges of the
   timed window while the other domain waits at the barrier. *)
let run r (m : Modes.t) ~mode ~traced ~dur_ns ~max_ops =
  let body d =
    let c = r.ctxs.(d) and w = r.wls.(d) in
    c.inst <- m.inst;
    c.mode <- mode;
    c.traced <- traced;
    guard c w.init;
    Util.await r.bar;
    if d = 0 then begin
      r.before <- Some (Modes.counters m);
      r.ops0 <- issued r
    end;
    Util.await r.bar;
    r.floors.(2 * d) <- Util.floor floor_iters;
    let lat = r.lat.(d) in
    let t0 = Util.now_ns () in
    (* Saturating: [dur_ns = max_int] means "until [max_ops]". *)
    let deadline = if dur_ns >= max_int - t0 then max_int else t0 + dur_ns in
    let last = ref t0 and acc = ref 0 and timed = ref 0 and n = ref 0 in
    (* Time spent waiting on the mailbox (steps that issue no call) is
       left out of the batch means: it is the partner's delay, not an
       allocator call's. It stays in the throughput. *)
    let idle_since = ref (-1) and idle = ref 0 in
    let go = ref true in
    while !go do
      (* An exception ends this domain's timed window. *)
      let k =
        try w.step ()
        with _ ->
          c.failed <- c.failed + 1;
          go := false;
          0
      in
      if k = 0 then begin
        let t = Util.now_ns () in
        if !idle_since >= 0 then idle := !idle + (t - !idle_since);
        idle_since := t;
        if t >= deadline then go := false
      end
      else begin
        idle_since := -1;
        acc := !acc + k;
        if !acc >= batch then begin
          let t = Util.now_ns () in
          if !n < lat_cap then begin
            lat.(!n) <- float_of_int (t - !last - !idle) /. float_of_int !acc;
            incr n
          end;
          timed := !timed + !acc;
          acc := 0;
          idle := 0;
          last := t;
          if t >= deadline || !timed >= max_ops then go := false
        end
      end
    done;
    r.timed_ops.(d) <- !timed;
    r.elapsed_ns.(d) <- !last - t0;
    r.nlat.(d) <- !n;
    r.floors.((2 * d) + 1) <- Util.floor floor_iters;
    guard c w.finish;
    Util.await r.bar;
    if d = 0 then begin
      (match r.before with
      | Some b -> r.window <- Some (Modes.diff b (Modes.counters m))
      | None -> ());
      r.window_ops <- issued r - r.ops0
    end;
    Util.await r.bar;
    guard c w.cleanup;
    c.traced <- false
  in
  if r.ndom = 1 then body 0
  else ignore (Mm_runtime.Real_rt.parallel_run () (Array.make r.ndom body))

(* Throughput of the last phase as measured, in M calls/s. *)
let mops r =
  let ops = Array.fold_left ( + ) 0 r.timed_ops
  and ns = Array.fold_left max 1 r.elapsed_ns in
  float_of_int ops *. 1e3 /. float_of_int ns

(* Host-speed normalization. On a shared host the fixed floor loop
   (Util.floor) runs up to ~1.6x slower for seconds at a time, and
   single-domain allocator throughput moves with it in proportion.
   Each domain samples the floor right before and right after its timed
   window; for a 1-domain phase [rescaled_mops] is the rate on a host
   whose floor loop takes [reference_floor_ns]. *)
let reference_floor_ns = 2.0

let rescaled_mops r =
  assert (r.ndom = 1);
  mops r *. (r.floors.(0) +. r.floors.(1)) /. (2.0 *. reference_floor_ns)

(* Mean floor loop time on the phase's domains, ns per iteration. *)
let floor r =
  Array.fold_left ( +. ) 0.0 r.floors /. float_of_int (Array.length r.floors)

(* The last phase's batch-mean latency samples as measured, pooled over
   domains. *)
let latencies r =
  Array.concat (List.init r.ndom (fun d -> Array.sub r.lat.(d) 0 r.nlat.(d)))
