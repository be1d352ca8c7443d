(* Isolated per-layer loops: each times [n] calls into one layer's
   public functions and returns nanoseconds per iteration. *)

module Rt = Mm_runtime.Real_rt
module Store = Modes.Store
module Q = Mm_lockfree.Ms_queue.Make (Rt)
module Tis = Mm_lockfree.Tagged_id_stack.Make (Rt)
module Hp = Mm_lockfree.Hazard_pointers.Make (Rt)
module Desc = Mm_core.Descriptor.Make (Rt)
module Dp = Mm_core.Desc_pool.Make (Rt)

let per_iter n t0 = float_of_int (Util.now_ns () - t0) /. float_of_int n
let sink = ref 0

let cas_word = Rt.Atomic.make () 0

let cas n =
  let a = cas_word and t0 = Util.now_ns () in
  for _ = 1 to n do
    let v = Rt.Atomic.get a in
    ignore (Rt.Atomic.compare_and_set a v (v + 1))
  done;
  per_iter n t0

(* Both domains get+CAS one shared word; ns per attempt per domain. *)
let cas_2d n =
  let a = Rt.Atomic.make () 0 and bar = Util.barrier 2 in
  let times = Array.make 2 0.0 in
  let body d =
    Util.await bar;
    let t0 = Util.now_ns () in
    for _ = 1 to n do
      let v = Rt.Atomic.get a in
      ignore (Rt.Atomic.compare_and_set a v (v + 1))
    done;
    times.(d) <- per_iter n t0
  in
  ignore (Rt.parallel_run () [| body; body |]);
  Float.max times.(0) times.(1)

(* Microseconds per [parallel_run] of two empty bodies. *)
let spawn n =
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    ignore (Rt.parallel_run () [| ignore; ignore |])
  done;
  per_iter n t0 /. 1e3

(* lib/mem: the bare load, and the Store word access that wraps it. *)
let bytes_buf = Bytes.make 16384 '\000'

let bytes_read n =
  let t0 = Util.now_ns () and acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + Int64.to_int (Bytes.get_int64_le bytes_buf ((i land 2047) lsl 3))
  done;
  sink := !acc;
  per_iter n t0

let read_word store sb n =
  let t0 = Util.now_ns () and acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + Store.read_word store (sb + ((i land 2047) lsl 3))
  done;
  sink := !acc;
  per_iter n t0

let write_word store sb n =
  let t0 = Util.now_ns () in
  for i = 0 to n - 1 do
    Store.write_word store (sb + ((i land 2047) lsl 3)) i
  done;
  per_iter n t0

(* Superblock map, free-list threading and unmap: the OS round trip of
   MallocFromNewSB and the EMPTY transition, 16-byte blocks. *)
let sb_cycle store n =
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    let a = Store.alloc_superblock store in
    Store.init_free_list store a ~sz:16 ~maxcount:(Store.sbsize store / 16);
    Store.free_superblock store a
  done;
  per_iter n t0

(* lib/lockfree *)
let msq_pair queue n =
  let t0 = Util.now_ns () in
  for i = 1 to n do
    Q.enqueue queue i;
    ignore (Q.dequeue queue)
  done;
  per_iter n t0

let tis_pair tis n =
  let t0 = Util.now_ns () in
  for i = 1 to n do
    Tis.push tis (i land 15);
    ignore (Tis.pop tis)
  done;
  per_iter n t0

let hp_protect hp n =
  let node = ref 0 in
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    Hp.protect hp ~slot:0 node;
    Hp.clear hp ~slot:0
  done;
  per_iter n t0

(* lib/core: the descriptor round trip of the paper's default pool
   (hazard-pointer freelist, Fig. 7). *)
let desc_pair pool n =
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    Dp.retire pool (Dp.alloc pool)
  done;
  per_iter n t0

(* lib/harness: the instance-closure malloc+free pair minus the direct
   functor-level pair, on one "new" heap, 16-byte blocks. *)
let closure (heap : Modes.t) n =
  let inst = heap.inst and lf = heap.lf in
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    inst.free (inst.malloc 16)
  done;
  let via_closure = per_iter n t0 in
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    Modes.Lf.free lf (Modes.Lf.malloc lf 16)
  done;
  via_closure -. per_iter n t0

(* Name, unit and loop of every isolated row, with iterations per
   sample. The layers' state is built here, not at program start, so
   untraced runs do not pay for it. *)
let rows () =
  let store = Store.create () () in
  let sb = Store.alloc_superblock store in
  let links = Array.make 16 (-1) in
  let tis =
    Tis.create ()
      ~get_next:(fun i -> links.(i))
      ~set_next:(fun i v -> links.(i) <- v)
      ()
  in
  let pool =
    Dp.create ()
      (Desc.create_table () ~capacity:4096)
      ~kind:Mm_mem.Alloc_config.Hazard ()
  in
  [
    ("runtime.floor_ns", "ns", Util.floor, 200_000);
    ("runtime.cas_ns", "ns", cas, 200_000);
    ("runtime.cas_2d_ns", "ns", cas_2d, 200_000);
    ("runtime.spawn_us", "us", spawn, 20);
    ("mem.bytes_read_ns", "ns", bytes_read, 200_000);
    ("mem.read_word_ns", "ns", read_word store sb, 200_000);
    ("mem.write_word_ns", "ns", write_word store sb, 200_000);
    ("mem.sb_cycle_ns", "ns", sb_cycle store, 500);
    ("lockfree.msq_pair_ns", "ns", msq_pair (Q.create ()), 100_000);
    ("lockfree.tis_pair_ns", "ns", tis_pair tis, 100_000);
    ("lockfree.hp_protect_ns", "ns", hp_protect (Hp.create () ~reuse:ignore), 200_000);
    ("core.desc_pair_ns", "ns", desc_pair pool, 50_000);
    ("harness.closure_ns", "ns", closure (Modes.create "new"), 50_000);
  ]
