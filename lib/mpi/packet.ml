type envelope = {
  e_src : int;
  e_dst : int;
  e_tag : int;
  e_context : int;
  e_bytes : int;
  e_seq : int;
}

type frame = { f_src : int; f_seq : int; f_check : int }

type t =
  | Eager of envelope * Bytes.t
  | Rts of envelope * int
  | Cts of int
  | Rndv_data of int * Bytes.t
  | Nak of int * string
  | Frame of frame * t
  | Ack of int * int

let header_bytes = 48
let frame_bytes = 16

let rec wire_bytes = function
  | Eager (_, b) -> header_bytes + Bytes.length b
  | Rts (_, _) -> header_bytes
  | Cts _ -> header_bytes
  | Rndv_data (_, b) -> header_bytes + Bytes.length b
  | Nak (_, msg) -> header_bytes + String.length msg
  | Frame (_, inner) -> frame_bytes + wire_bytes inner
  | Ack (_, _) -> header_bytes

(* FNV-1a over a canonical field-by-field encoding; the reliable layer
   stores the result in the frame header so bit corruption anywhere in the
   inner packet is detected on receive. Truncated to 30 bits so it stays a
   small OCaml int on every platform. The byte loops keep the hash in an
   unboxed local: no closure call and no boxed [int64] per byte. *)
let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let[@inline] mix_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* The 8 bytes of [n], least significant first. *)
let mix_int h n =
  let h = ref h in
  for k = 0 to 7 do
    h := mix_byte !h (n asr (8 * k))
  done;
  !h

let mix_bytes h b =
  let h = ref (mix_int h (Bytes.length b)) in
  for i = 0 to Bytes.length b - 1 do
    h := mix_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let mix_string h s = mix_bytes h (Bytes.unsafe_of_string s)

let mix_envelope h e =
  let h = mix_int h e.e_src in
  let h = mix_int h e.e_dst in
  let h = mix_int h e.e_tag in
  let h = mix_int h e.e_context in
  let h = mix_int h e.e_bytes in
  mix_int h e.e_seq

let rec digest h = function
  | Eager (e, b) -> mix_bytes (mix_envelope (mix_int h 1) e) b
  | Rts (e, id) -> mix_int (mix_envelope (mix_int h 2) e) id
  | Cts id -> mix_int (mix_int h 3) id
  | Rndv_data (id, b) -> mix_bytes (mix_int (mix_int h 4) id) b
  | Nak (id, msg) -> mix_string (mix_int (mix_int h 5) id) msg
  | Frame (f, inner) ->
      let h = mix_int (mix_int h 6) f.f_src in
      let h = mix_int h f.f_seq in
      digest (mix_int h f.f_check) inner
  | Ack (src, cum) -> mix_int (mix_int (mix_int h 7) src) cum

let checksum p = Int64.to_int (Int64.logand (digest fnv_basis p) 0x3FFFFFFFL)

let rec describe = function
  | Eager (e, b) ->
      Printf.sprintf "eager %d->%d tag=%d %dB" e.e_src e.e_dst e.e_tag
        (Bytes.length b)
  | Rts (e, id) ->
      Printf.sprintf "rts %d->%d tag=%d %dB id=%d" e.e_src e.e_dst e.e_tag
        e.e_bytes id
  | Cts id -> Printf.sprintf "cts id=%d" id
  | Rndv_data (id, b) ->
      Printf.sprintf "data id=%d %dB" id (Bytes.length b)
  | Nak (id, msg) -> Printf.sprintf "nak id=%d (%s)" id msg
  | Frame (f, inner) ->
      Printf.sprintf "frame src=%d seq=%d [%s]" f.f_src f.f_seq
        (describe inner)
  | Ack (src, cum) -> Printf.sprintf "ack src=%d cum=%d" src cum
