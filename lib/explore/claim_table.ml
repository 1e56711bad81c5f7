(* Each stripe is an open-addressing table over one flat [int array],
   four words per slot: f1, f2, depth, bound. A negative depth word
   marks an empty slot (claimed depths are never negative), so a fresh
   array is just [Array.make _ (-1)]. *)

let stripes = 64
let stripe_shift = 57 (* the top 6 bits of a 63-bit hash *)
let initial_slots = 64

type stripe = {
  mu : Mutex.t;
  mutable keys : int array;  (** guarded by [mu] *)
  mutable count : int;  (** guarded by [mu] *)
}

type t = stripe array

(* An xor-shift-multiply finalizer over the four fields.
   The digests' low bits alone are poorly spread — their mixers are
   multiplicative, so low result bits depend only on low input bits —
   hence the full mix before any bits are used. *)
let fmix h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x369DEA0F31A53F85 in
  h lxor (h lsr 32)

let hash f1 f2 depth bound =
  fmix (f1 + fmix (f2 + ((depth * 0x9E3779B1) lxor (bound * 0x85EBCA77))))

let create () : t =
  Array.init stripes (fun _ ->
      {
        mu = Mutex.create ();
        keys = Array.make (4 * initial_slots) (-1);
        count = 0;
      })

(* The slot holding the key, or the empty slot where it belongs. *)
let rec find keys mask i f1 f2 depth bound =
  let o = 4 * i in
  let d = keys.(o + 2) in
  if
    d < 0
    || d = depth
       && keys.(o) = f1
       && keys.(o + 1) = f2
       && keys.(o + 3) = bound
  then i
  else find keys mask ((i + 1) land mask) f1 f2 depth bound

let store keys i f1 f2 depth bound =
  let o = 4 * i in
  keys.(o) <- f1;
  keys.(o + 1) <- f2;
  keys.(o + 2) <- depth;
  keys.(o + 3) <- bound

let grow s =
  let old = s.keys in
  let keys = Array.make (2 * Array.length old) (-1) in
  let mask = (Array.length keys / 4) - 1 in
  for i = 0 to (Array.length old / 4) - 1 do
    let o = 4 * i in
    let depth = old.(o + 2) in
    if depth >= 0 then begin
      let f1 = old.(o) and f2 = old.(o + 1) and bound = old.(o + 3) in
      let h = hash f1 f2 depth bound in
      store keys (find keys mask (h land mask) f1 f2 depth bound) f1 f2 depth
        bound
    end
  done;
  s.keys <- keys

let claim (t : t) f1 f2 ~depth ~bound =
  if depth < 0 then invalid_arg "Claim_table.claim: negative depth";
  let h = hash f1 f2 depth bound in
  let s = t.(h lsr stripe_shift) in
  Mutex.lock s.mu;
  let mask = (Array.length s.keys / 4) - 1 in
  let i = find s.keys mask (h land mask) f1 f2 depth bound in
  let fresh = s.keys.((4 * i) + 2) < 0 in
  if fresh then begin
    store s.keys i f1 f2 depth bound;
    s.count <- s.count + 1;
    if 2 * s.count > mask + 1 then grow s
  end;
  Mutex.unlock s.mu;
  fresh

let sum_stripes (t : t) f =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.mu;
      let v = f s in
      Mutex.unlock s.mu;
      acc + v)
    0 t

let length t = sum_stripes t (fun s -> s.count)
let capacity t = sum_stripes t (fun s -> Array.length s.keys / 4)

let stripe_of f1 f2 ~depth ~bound = hash f1 f2 depth bound lsr stripe_shift

let slot_of f1 f2 ~depth ~bound ~capacity =
  hash f1 f2 depth bound land (capacity - 1)
