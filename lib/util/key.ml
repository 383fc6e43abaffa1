(* Zigzag moves the sign into the low bit, so both small positive and
   small negative ints have small codes; LEB128 then writes seven bits
   per byte, least significant first, with the high bit set on every
   byte but the last. The last byte is the only one below 128, which is
   what makes the code prefix-free. Bytes go out two per store where
   they can: a 30-bit id takes three stores, not five. *)
let rec leb128 b z =
  if z lsr 7 = 0 then Buffer.add_uint8 b z
  else if z lsr 14 = 0 then
    Buffer.add_uint16_le b (z land 0x7f lor 0x80 lor ((z lsr 7) lsl 8))
  else begin
    Buffer.add_uint16_le b
      (z land 0x7f lor 0x80 lor (((z lsr 7) land 0x7f lor 0x80) lsl 8));
    leb128 b (z lsr 14)
  end

let int b i =
  let z = (i lsl 1) lxor (i asr (Sys.int_size - 1)) in
  if z land -0x80 = 0 then Buffer.add_uint8 b z else leb128 b z

let id b i = int b (Node_id.to_int i)

let tag b t =
  if t < 0 || t > 255 then invalid_arg "Key.tag: out of byte range";
  Buffer.add_uint8 b t

let bool b x = tag b (if x then 1 else 0)

let string b s =
  int b (String.length s);
  Buffer.add_string b s

let list w b l =
  int b (List.length l);
  List.iter (w b) l

let option w b = function
  | None -> tag b 0
  | Some x ->
      tag b 1;
      w b x

let to_string ?(size = 64) w x =
  let b = Buffer.create size in
  w b x;
  Buffer.contents b
