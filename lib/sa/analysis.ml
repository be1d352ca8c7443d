type t =
  | Hp_protocol
  | Cas_loop_progress
  | Write_before_publish
  | Label_dominance

let all =
  [ Hp_protocol; Cas_loop_progress; Write_before_publish; Label_dominance ]

let name = function
  | Hp_protocol -> "hp-protocol"
  | Cas_loop_progress -> "cas-loop-progress"
  | Write_before_publish -> "write-before-publish"
  | Label_dominance -> "label-dominance"

let of_name s = List.find_opt (fun a -> name a = s) all

let describe = function
  | Hp_protocol ->
      "S1: a descriptor popped from a shared freelist head must be \
       hazard-protected, re-validated by a fresh read of the head, and \
       only then dereferenced; one of unknown provenance (a parameter, a \
       helper's result) must be protected and then followed by an atomic \
       read; the hazard slot is released on every path (Fig. 7 SafeRead, \
       checked flow-sensitively over the CFG)"
  | Cas_loop_progress ->
      "S2: every CAS retry loop re-reads the contended word after each \
       backedge before using it as the CAS expected value (no \
       stale-expected loops), and each labelled window commits at most \
       one result-bearing CAS"
  | Write_before_publish ->
      "S3: plain stores into a block must be ordered (Rt.fence) before \
       the CAS that publishes the block to other threads; unfenced \
       writes reachable from the CAS desired value are reported"
  | Label_dominance ->
      "S4: a registry Rt.label runs between the shared-word read and \
       the CAS on every CFG path, helping CASes included, and inside \
       every retry loop; this covers calls into functions whose \
       CAS window label is a parameter (Tagged_id_stack push/pop): such \
       calls must be dominated by a registry label, carry a registry \
       label argument, or the stack must be created with a registry \
       label override"
