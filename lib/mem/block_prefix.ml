let prefix_bytes = 8

(* Two tag bits: 0 = small (descriptor id), 1 = large (total length),
   2 = offset (aligned-allocation marker: the payload was advanced by
   [delta] bytes from the underlying block's payload). *)

let small ~desc_id = desc_id lsl 2
let large ~total_len = (total_len lsl 2) lor 1
let offset ~delta = (delta lsl 2) lor 2

let is_large w = w land 3 = 1
let is_offset w = w land 3 = 2
let desc_id w = w lsr 2
let large_len w = w lsr 2
let offset_delta w = w lsr 2

let base_payload payload w =
  if is_offset w then payload - offset_delta w else payload
