type t = { mutable bits : Bytes.t; mutable count : int }

let create ?(hint = 64) () = { bits = Bytes.make ((max hint 1 + 7) / 8) '\000'; count = 0 }

let mem t ix =
  let byte = ix lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (ix land 7)) <> 0

let add t ix =
  if ix < 0 then invalid_arg "Bitset.add: negative index";
  let byte = ix lsr 3 in
  if byte >= Bytes.length t.bits then begin
    let grown = Bytes.make (max (byte + 1) (2 * Bytes.length t.bits)) '\000' in
    Bytes.blit t.bits 0 grown 0 (Bytes.length t.bits);
    t.bits <- grown
  end;
  let c = Char.code (Bytes.unsafe_get t.bits byte) in
  let bit = 1 lsl (ix land 7) in
  if c land bit = 0 then begin
    Bytes.unsafe_set t.bits byte (Char.chr (c lor bit));
    t.count <- t.count + 1
  end

let count t = t.count
let copy t = { bits = Bytes.copy t.bits; count = t.count }

let clear t =
  if t.count > 0 then Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.count <- 0

let fold t ~init ~f =
  let acc = ref init in
  for byte = 0 to Bytes.length t.bits - 1 do
    let c = Char.code (Bytes.unsafe_get t.bits byte) in
    if c <> 0 then
      for bit = 0 to 7 do
        if c land (1 lsl bit) <> 0 then acc := f !acc ((byte lsl 3) lor bit)
      done
  done;
  !acc
